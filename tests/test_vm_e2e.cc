/**
 * @file
 * End-to-end VM configuration tests: THP-style huge pages reduce STLB
 * pressure, nested (2D guest×host) translation multiplies walk memory
 * references, and both modes hold up under the invariant checker.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "sim/system.hh"
#include "sim/verify.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 60000;
constexpr std::uint64_t kWarm = 15000;

System
makeSystem(SystemConfig cfg, Benchmark b)
{
    std::vector<std::unique_ptr<Workload>> w;
    for (unsigned t = 0; t < cfg.threads(); ++t)
        w.push_back(makeWorkload(b, cfg.seed + t));
    return System(cfg, std::move(w));
}

std::uint64_t
totalWalkRefs(const PtwStats &s)
{
    std::uint64_t refs = 0;
    for (unsigned l = 0; l < kPtLevels; ++l)
        refs += s.levelReads[l] + s.hostLevelReads[l];
    return refs;
}

TEST(VmE2e, DefaultConfigStaysPureFourK)
{
    // Guard for golden-snapshot identity: with vm knobs at their
    // defaults nothing may touch the huge-page or nested paths.
    SystemConfig cfg;
    ASSERT_FALSE(cfg.vm.anyHugePages());
    ASSERT_FALSE(cfg.vm.nested);
    System sys = makeSystem(cfg, Benchmark::xalancbmk);
    sys.run(kInstr);
    const PtwStats &ps = sys.ptw().stats();
    EXPECT_EQ(ps.hostWalks, 0u);
    EXPECT_EQ(ps.walksBySize[unsigned(PageSize::Size2M)], 0u);
    EXPECT_EQ(ps.walksBySize[unsigned(PageSize::Size1G)], 0u);
    // walks counts at start, walksBySize at completion — a handful may
    // still be in flight when the run stops.
    EXPECT_LE(ps.walksBySize[unsigned(PageSize::Size4K)], ps.walks);
    EXPECT_GE(ps.walksBySize[unsigned(PageSize::Size4K)] + 16, ps.walks);
    EXPECT_EQ(sys.stlb().stats().fillsBySize[unsigned(PageSize::Size2M)],
              0u);
    EXPECT_EQ(sys.hostPageTable(), nullptr);
}

TEST(VmE2e, TwoMegPagesReduceStlbMpki)
{
    SystemConfig base;
    const RunResult rb = runSpecMix(base, {"mcf"}, kInstr, kWarm);

    SystemConfig thp = base;
    thp.vm.hugePages2M = 1.0;
    const RunResult rt = runSpecMix(thp, {"mcf"}, kInstr, kWarm);

    // 512x coverage per STLB entry: misses must drop hard.
    EXPECT_LT(rt.stlbMpki, rb.stlbMpki * 0.5)
        << "2M pages should slash STLB MPKI (base " << rb.stlbMpki
        << ", thp " << rt.stlbMpki << ")";
}

TEST(VmE2e, FractionalThpLandsBetweenTheExtremes)
{
    SystemConfig base;
    SystemConfig half = base;
    half.vm.hugePages2M = 0.5;
    SystemConfig full = base;
    full.vm.hugePages2M = 1.0;

    const RunResult r0 = runSpecMix(base, {"mcf"}, kInstr, kWarm);
    const RunResult rh = runSpecMix(half, {"mcf"}, kInstr, kWarm);
    const RunResult r1 = runSpecMix(full, {"mcf"}, kInstr, kWarm);
    EXPECT_LT(rh.stlbMpki, r0.stlbMpki);
    EXPECT_LE(r1.stlbMpki, rh.stlbMpki);
}

TEST(VmE2e, HugePageWalksAreShorter)
{
    SystemConfig thp;
    thp.vm.hugePages2M = 1.0;
    System sys = makeSystem(thp, Benchmark::mcf);
    sys.run(kInstr);
    const PtwStats &ps = sys.ptw().stats();
    ASSERT_GT(ps.walks, 0u);
    EXPECT_EQ(ps.walksBySize[unsigned(PageSize::Size2M)], ps.walks);
    EXPECT_EQ(ps.levelReads[0], 0u); // no level-1 tables exist
    // Every walk reads at most 4 levels.
    EXPECT_LE(totalWalkRefs(ps), 4 * ps.walks);
}

TEST(VmE2e, NestedTranslationMultipliesWalkReferences)
{
    // The paper's virtualization motivation: a 2D guest×host walk
    // needs up to 24 references on a 4-level table (35 on 5 levels)
    // where a bare-metal walk needs at most 5. With PSCs live in both
    // dimensions most of that is absorbed, but on a walk-heavy
    // workload every STLB miss must still cost ≥4 references where a
    // PSCL2-hit bare-metal walk needs exactly 1.
    SystemConfig bare;
    System sb = makeSystem(bare, Benchmark::tc);
    sb.run(kInstr);
    const PtwStats &psb = sb.ptw().stats();
    ASSERT_GT(psb.walks, 0u);

    SystemConfig nested = bare;
    nested.vm.nested = true;
    System sn = makeSystem(nested, Benchmark::tc);
    sn.run(kInstr);
    const PtwStats &psn = sn.ptw().stats();
    ASSERT_GT(psn.walks, 0u);
    EXPECT_GT(psn.hostWalks, psn.walks); // >= guest levels + 1 sub-walks

    const double bareRefs =
        double(totalWalkRefs(psb)) / double(psb.walks);
    const double nestedRefs =
        double(totalWalkRefs(psn)) / double(psn.walks);
    EXPECT_GE(nestedRefs, 4.0)
        << "a nested STLB miss should cost >=4x a bare PSCL2-hit walk";
    EXPECT_GE(nestedRefs, 2.5 * bareRefs)
        << "nested walks should multiply references per STLB miss "
           "(bare "
        << bareRefs << ", nested " << nestedRefs << ")";
    // And the slowdown is visible end to end.
    EXPECT_GT(sn.cycle(), sb.cycle());
}

TEST(VmE2e, NestedWithHostHugePagesShortensHostWalks)
{
    SystemConfig nested;
    nested.vm.nested = true;
    System s4k = makeSystem(nested, Benchmark::xalancbmk);
    s4k.run(kInstr);

    SystemConfig nestedThp = nested;
    nestedThp.vm.hostHugePages2M = 1.0;
    System s2m = makeSystem(nestedThp, Benchmark::xalancbmk);
    s2m.run(kInstr);

    const auto hostReads = [](const PtwStats &s) {
        std::uint64_t r = 0;
        for (unsigned l = 0; l < kPtLevels; ++l)
            r += s.hostLevelReads[l];
        return r;
    };
    const double perSubWalk4k = double(hostReads(s4k.ptw().stats())) /
        double(s4k.ptw().stats().hostWalks);
    const double perSubWalk2m = double(hostReads(s2m.ptw().stats())) /
        double(s2m.ptw().stats().hostWalks);
    EXPECT_LT(perSubWalk2m, perSubWalk4k);
}

TEST(VmE2e, CheckerPassesUnderHugePagesAndNesting)
{
    SystemConfig cfg;
    cfg.vm.hugePages2M = 0.5;
    cfg.vm.hugePages1G = 0.1;
    cfg.vm.nested = true;
    cfg.vm.hostHugePages2M = 0.5;
    std::vector<std::unique_ptr<Workload>> w;
    w.push_back(makeWorkload(Benchmark::mcf, cfg.seed));
    System sys(cfg, std::move(w));
    verify::Checker checker(sys, 2000);
    sys.attachChecker(&checker);
    sys.run(30000);
    // The TLB/page-table cross-check verifies every cached entry's PFN
    // and granule against a fresh guest×host walk.
    EXPECT_NO_THROW(checker.checkAll());
    EXPECT_GT(sys.ptw().stats().walksBySize[unsigned(PageSize::Size2M)],
              0u);
}

TEST(VmE2e, VmConfigsAreDeterministic)
{
    SystemConfig cfg;
    cfg.vm.hugePages2M = 0.5;
    cfg.vm.nested = true;
    System a = makeSystem(cfg, Benchmark::mcf);
    System b = makeSystem(cfg, Benchmark::mcf);
    a.run(30000);
    b.run(30000);
    EXPECT_EQ(a.cycle(), b.cycle());
    EXPECT_EQ(a.ptw().stats().hostWalks, b.ptw().stats().hostWalks);
    EXPECT_EQ(a.stlb().stats().misses, b.stlb().stats().misses);
}

} // namespace
} // namespace tacsim
