/**
 * @file
 * Integration tests: the full system end to end — stats invariants,
 * warmup semantics, ideal modes, SMT and multi-core composition, and
 * the translation-aware configuration helper.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "test_util.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 60000;
constexpr std::uint64_t kWarm = 15000;

System
makeSystem(SystemConfig cfg, Benchmark b = Benchmark::pr)
{
    std::vector<std::unique_ptr<Workload>> w;
    for (unsigned t = 0; t < cfg.threads(); ++t)
        w.push_back(makeWorkload(b, cfg.seed + t));
    return System(cfg, std::move(w));
}

TEST(SystemTest, RunRetiresRequestedInstructions)
{
    SystemConfig cfg;
    System sys = makeSystem(cfg);
    sys.run(kInstr);
    EXPECT_GE(sys.core(0).retired(), kInstr);
    EXPECT_GT(sys.cycle(), 0u);
}

TEST(SystemTest, CacheStatsInternallyConsistent)
{
    SystemConfig cfg;
    System sys = makeSystem(cfg);
    sys.run(kInstr);
    for (Cache *c : {&sys.l1d(), &sys.l2(), &sys.llc()}) {
        const CacheStats &s = c->stats();
        for (std::size_t cat = 0; cat < kNumBlockCats; ++cat) {
            EXPECT_EQ(s.accesses[cat], s.hits[cat] + s.misses[cat])
                << c->name() << " cat " << cat;
        }
    }
}

TEST(SystemTest, HierarchyFiltersMisses)
{
    SystemConfig cfg;
    System sys = makeSystem(cfg);
    sys.run(kInstr);
    // Each L1D demand miss either merges into an existing MSHR or
    // forwards one child to the L2 (plus PTW translation children),
    // so L2 demand accesses are bounded by L1 misses and are nonzero.
    const auto l1Miss = sys.l1d().stats().demandMisses();
    const auto l1Merges = sys.l1d().stats().mshrMerges;
    const auto l2Acc = sys.l2().stats().demandAccesses();
    EXPECT_GT(l2Acc, 0u);
    EXPECT_LE(l2Acc, l1Miss + 10);
    EXPECT_GE(l2Acc + l1Merges + 100, l1Miss);
}

TEST(SystemTest, TranslationsReachCachesViaPtw)
{
    SystemConfig cfg;
    System sys = makeSystem(cfg);
    sys.run(kInstr);
    EXPECT_GT(sys.ptw().stats().walks, 0u);
    EXPECT_GT(sys.l1d().stats().translationAccesses(), 0u);
    // The leaf source distribution covers all walks (modulo walks that
    // are still in flight or queued when the run ends).
    const PtwStats &ps = sys.ptw().stats();
    const auto attributed = ps.leafFromL1D + ps.leafFromL2C +
        ps.leafFromLLC + ps.leafFromDram + ps.leafFromIdeal;
    EXPECT_LE(attributed, ps.walks);
    EXPECT_GE(attributed + 8, ps.walks);
}

TEST(SystemTest, WarmupResetsStatsButKeepsState)
{
    SystemConfig cfg;
    System sys = makeSystem(cfg);
    sys.warmup(kWarm);
    EXPECT_EQ(sys.core(0).retired(), 0u);
    EXPECT_EQ(sys.measuredCycles(), 0u);
    const auto llcFillsAfterWarmup = sys.llc().stats().fills;
    EXPECT_EQ(llcFillsAfterWarmup, 0u);
    sys.run(kInstr);
    EXPECT_GE(sys.core(0).retired(), kInstr);
}

TEST(SystemTest, DeterministicAcrossRuns)
{
    SystemConfig cfg;
    System a = makeSystem(cfg);
    System b = makeSystem(cfg);
    a.run(kInstr);
    b.run(kInstr);
    EXPECT_EQ(a.cycle(), b.cycle());
    EXPECT_EQ(a.llc().stats().demandMisses(),
              b.llc().stats().demandMisses());
}

TEST(SystemTest, IdealLlcTranslationsEliminatesLeafDramResponses)
{
    SystemConfig cfg;
    cfg.idealLlcTranslations = true;
    System sys = makeSystem(cfg);
    sys.run(kInstr);
    EXPECT_EQ(sys.ptw().stats().leafFromDram, 0u);
    EXPECT_GT(sys.ptw().stats().leafFromIdeal, 0u);
}

TEST(SystemTest, IdealModesImprovePerformance)
{
    // mcf's dependent chain is latency-bound: ideal replay treatment
    // must shorten it substantially (paper Fig. 2's premise).
    SystemConfig base;
    System b = makeSystem(base, Benchmark::mcf);
    b.warmup(kWarm);
    b.run(kInstr);

    SystemConfig ideal = base;
    ideal.idealLlcTranslations = true;
    ideal.idealLlcReplays = true;
    ideal.idealL2Translations = true;
    ideal.idealL2Replays = true;
    System i = makeSystem(ideal, Benchmark::mcf);
    i.warmup(kWarm);
    i.run(kInstr);
    EXPECT_LT(i.measuredCycles(), b.measuredCycles() * 95 / 100);
}

TEST(SystemTest, SmtSharesHierarchy)
{
    SystemConfig cfg;
    cfg.threadsPerCore = 2;
    System sys = makeSystem(cfg);
    EXPECT_EQ(sys.threads(), 2u);
    sys.run(kInstr / 2);
    EXPECT_GE(sys.core(0).retired(), kInstr / 2);
    EXPECT_GE(sys.core(1).retired(), kInstr / 2);
    // Both ASIDs hit the same STLB.
    EXPECT_GT(sys.stlb(0).stats().accesses, 0u);
}

TEST(SystemTest, MultiCoreSharesLlcPrivateL2)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    System sys = makeSystem(cfg, Benchmark::canneal);
    sys.run(20000);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_GT(sys.l2(c).stats().demandAccesses(), 0u) << c;
    EXPECT_GT(sys.llc().stats().demandAccesses(), 0u);
    // LLC is scaled: 2MB per core.
    EXPECT_EQ(sys.llc().params().sets * sys.llc().params().ways *
                  kBlockSize,
              Addr{8} << 20);
}

TEST(SystemTest, PerThreadFinishCyclesRecorded)
{
    SystemConfig cfg;
    cfg.numCores = 2;
    System sys = makeSystem(cfg);
    sys.run(20000);
    EXPECT_GT(sys.threadCycles(0), 0u);
    EXPECT_GT(sys.threadCycles(1), 0u);
}

TEST(SystemTest, ThreadIpcIsMeasuredAtEachThreadsFinish)
{
    // A fast and a slow benchmark on two cores: the fast thread reaches
    // its budget first and keeps running until the slow one does. Its
    // IPC must count only what it retired by its own finish cycle.
    constexpr std::uint64_t budget = 20000;
    SystemConfig cfg{.numCores = 2};
    std::vector<std::unique_ptr<Workload>> w;
    w.push_back(makeWorkload(Benchmark::xalancbmk, cfg.seed));
    w.push_back(makeWorkload(Benchmark::pr, cfg.seed + 1));
    System sys(cfg, std::move(w));
    sys.warmup(5000);
    sys.run(budget);
    const RunResult r = collectResult(sys, "xalancbmk-pr");

    // A retire step may overshoot the budget by up to a width less one.
    const std::uint64_t slack = cfg.core.retireWidth - 1;
    for (std::size_t t = 0; t < 2; ++t) {
        EXPECT_GE(r.threadInstructions[t], budget) << "thread " << t;
        EXPECT_LE(r.threadInstructions[t], budget + slack) << "thread " << t;
    }
    const std::size_t fast = r.threadCycles[0] < r.threadCycles[1] ? 0 : 1;
    EXPECT_GT(sys.core(fast).retired(), budget + slack);
}

TEST(TranslationAware, AppliesAllFlags)
{
    SystemConfig cfg;
    TranslationAwareOptions o;
    o.tempo = true;
    applyTranslationAware(cfg, o);
    EXPECT_TRUE(cfg.l2Opts.translationRrpv0);
    EXPECT_TRUE(cfg.l2Opts.replayEvictFast);
    EXPECT_TRUE(cfg.llcOpts.newSignatures);
    EXPECT_TRUE(cfg.llcOpts.translationRrpv0);
    EXPECT_TRUE(cfg.atpL2);
    EXPECT_TRUE(cfg.atpLlc);
    EXPECT_TRUE(cfg.dram.tempo);
}

TEST(TranslationAware, TShipReducesLlcTranslationMisses)
{
    // Longer horizon than the other tests: retention only pays off once
    // translation blocks see reuse (recall distance <= ~50).
    SystemConfig base;
    RunResult rb = runSpecMix(base, {"pr"}, 300000, 80000);

    SystemConfig t = base;
    applyTranslationAware(t, {true, true, false, false, false});
    RunResult rt = runSpecMix(t, {"pr"}, 300000, 80000);

    EXPECT_LT(rt.llcPtl1Mpki, rb.llcPtl1Mpki);
    EXPECT_GE(rt.leafOnChipHitRate, rb.leafOnChipHitRate);
}

TEST(TranslationAware, TShipRetainsTranslationsUnderDataChurn)
{
    // Mechanism-level check, deterministic: a leaf-translation block in
    // one set survives a burst of dead data fills under T-SHiP but is
    // evicted under baseline SHiP.
    auto churn = [](ReplOpts opts) {
        EventQueue eq;
        test::MockMemory mem(eq, 50);
        CacheParams p;
        p.sets = 2;
        p.ways = 4;
        p.latency = 1;
        p.mshrs = 8;
        Cache c(p, eq, &mem, makePolicy(PolicyKind::SHiP, 2, 4, opts));

        auto tr = test::makeTranslation(0x0, 1, 0x99000, 0x500000);
        c.access(tr);
        test::drain(eq);
        // Flood the same set with dead data fills from one IP.
        for (int i = 0; i < 16; ++i) {
            auto ld = test::makeLoad(Addr(0x0) + Addr(2 * i + 2) * 128,
                                     0x600000);
            c.access(ld);
            test::drain(eq);
        }
        return c.contains(0x0);
    };

    ReplOpts baseline;
    ReplOpts tship;
    tship.newSignatures = true;
    tship.translationRrpv0 = true;
    EXPECT_FALSE(churn(baseline));
    EXPECT_TRUE(churn(tship));
}

TEST(TranslationAware, AtpIssuesAccuratePrefetches)
{
    SystemConfig cfg;
    applyTranslationAware(cfg, {true, true, false, true, false});
    std::vector<std::unique_ptr<Workload>> w;
    w.push_back(makeWorkload(Benchmark::mcf, cfg.seed));
    System sys(cfg, std::move(w));
    sys.run(kInstr);
    const auto issued =
        sys.l2().stats().atpIssued + sys.llc().stats().atpIssued;
    EXPECT_GT(issued, 0u);
}

TEST(TranslationAware, TempoPrefetchesAtDramOnLeafMiss)
{
    SystemConfig cfg;
    applyTranslationAware(cfg, {true, true, false, true, true});
    std::vector<std::unique_ptr<Workload>> w;
    // canneal has the most DRAM-bound translations.
    w.push_back(makeWorkload(Benchmark::canneal, cfg.seed));
    System sys(cfg, std::move(w));
    sys.run(kInstr);
    EXPECT_GT(sys.dram().stats().tempoPrefetches, 0u);
}

TEST(RunnerTest, SpeedupMath)
{
    RunResult a, b;
    a.cycles = 2000;
    a.instructions = 1000;
    b.cycles = 1000;
    b.instructions = 1000;
    EXPECT_DOUBLE_EQ(speedup(a, b), 2.0);
    EXPECT_DOUBLE_EQ(speedup(b, a), 0.5);
}

TEST(RunnerTest, HarmonicSpeedupMath)
{
    RunResult mix;
    mix.threadCycles = {1000, 1000};
    mix.threadInstructions = {500, 250}; // IPC .5 and .25
    const double h = harmonicSpeedup({1.0, 0.5}, mix);
    EXPECT_DOUBLE_EQ(h, 2.0 / (1.0 / 0.5 + 0.5 / 0.25));
}

TEST(RunnerTest, CollectResultMatchesSystem)
{
    SystemConfig cfg;
    System sys = makeSystem(cfg, Benchmark::tc);
    sys.warmup(kWarm);
    sys.run(kInstr);
    RunResult r = collectResult(sys, "tc");
    EXPECT_EQ(r.cycles, sys.measuredCycles());
    EXPECT_GE(r.instructions, kInstr);
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_GT(r.stlbMpki, 0.0);
    EXPECT_NEAR(r.leafL1D + r.leafL2C + r.leafLLC + r.leafDram, 1.0,
                1e-6);
}

TEST(RunnerTest, RunBenchmarkProducesNamedResult)
{
    SystemConfig cfg;
    RunResult r = runSpecMix(cfg, {"xalancbmk"}, 20000, 5000);
    EXPECT_EQ(r.benchmark, "xalancbmk");
    EXPECT_GE(r.instructions, 20000u);
}

} // namespace
} // namespace tacsim
