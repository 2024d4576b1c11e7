/**
 * @file
 * Scale-out end-to-end tests for the declarative topology engine:
 * 16/32/64-core machines built from a topology string alone,
 * byte-identical determinism between a serial sweep and a 4-worker
 * pool, pin tests that the default 1-core and 8-core machines are
 * bit-exact through the topology path (so the pre-existing goldens
 * stay valid), an arbitration-engagement sanity check, and the
 * death-tested accessor guards on System::threadCycles()/finishCycle().
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/slice_router.hh"
#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "sim/topology.hh"
#include "workloads/benchmarks.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 3000;
constexpr std::uint64_t kWarm = 500;

/** Deterministic heterogeneous mix: cycle through the suite. */
std::vector<std::string>
cyclingMix(unsigned threads)
{
    std::vector<std::string> mix;
    mix.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        mix.push_back(
            benchmarkName(kAllBenchmarks[t % kAllBenchmarks.size()]));
    return mix;
}

std::vector<std::unique_ptr<Workload>>
workloadsFor(const SystemConfig &cfg)
{
    std::vector<std::unique_ptr<Workload>> w;
    const std::vector<std::string> mix = cyclingMix(cfg.threads());
    for (std::size_t t = 0; t < mix.size(); ++t)
        w.push_back(makeWorkloadFromSpec(mix[t], cfg.seed + t));
    return w;
}

TEST(TopologyScaleoutTest, SixteenCoreMachineRunsFromSpecAlone)
{
    const SystemConfig cfg = configFromTopology(
        "cores=16,slices=4,slice_lat=2,mshr_quota=64,bw=32");
    System sys(cfg, workloadsFor(cfg));

    ASSERT_EQ(sys.threads(), 16u);
    ASSERT_EQ(sys.llcSlices(), 4u);
    ASSERT_NE(sys.llcRouter(), nullptr);
    // Slices split the auto-sized 32MB LLC evenly: 32768 sets over 4.
    EXPECT_EQ(sys.llc(0).params().sets, 8192u);

    sys.warmup(kWarm);
    sys.run(kInstr);

    for (std::size_t t = 0; t < sys.threads(); ++t)
        EXPECT_GT(sys.threadCycles(t), 0u) << "thread " << t;
    const obs::Totals totals = sys.metrics().totals();
    std::uint64_t accesses = 0;
    for (const auto &[name, n] : totals.counters) {
        if (name.rfind("llc.accesses.", 0) == 0)
            accesses += n;
    }
    EXPECT_GT(accesses, 0u);
    // The ring model charged remote-slice hops.
    EXPECT_GT(sys.llcRouter()->stats().routed, 0u);
    EXPECT_GT(sys.llcRouter()->stats().hopCycles, 0u);
}

TEST(TopologyScaleoutTest, LargeMachinesBuildFromSpecAlone)
{
    {
        const SystemConfig cfg =
            configFromTopology("cores=32,smt=2,slices=8,chan=4");
        System sys(cfg, workloadsFor(cfg));
        EXPECT_EQ(sys.threads(), 64u);
        EXPECT_EQ(sys.llcSlices(), 8u);
    }
    {
        const SystemConfig cfg = configFromTopology(
            "cores=64,llc=128MB/32w,slices=16,slice_lat=2");
        System sys(cfg, workloadsFor(cfg));
        EXPECT_EQ(sys.threads(), 64u);
        EXPECT_EQ(sys.llcSlices(), 16u);
        // 128MB / (32w * 64B) = 65536 sets, 4096 per slice.
        EXPECT_EQ(sys.llc(0).params().sets, 4096u);
    }
}

TEST(TopologyScaleoutTest, SerialAndPooledSweepsAreByteIdentical)
{
    const SystemConfig cfg = configFromTopology(
        "cores=16,slices=4,slice_lat=2,mshr_quota=64,bw=32");

    SweepRunner serial(1);
    SweepRunner pooled(4);
    const std::vector<std::string> keys = {"so/cycling", "so/homog-pr"};
    const std::vector<std::vector<std::string>> mixes = {
        cyclingMix(16), std::vector<std::string>(16, "pr")};
    for (std::size_t i = 0; i < keys.size(); ++i) {
        serial.add(keys[i], cfg, mixes[i], kInstr, kWarm);
        pooled.add(keys[i], cfg, mixes[i], kInstr, kWarm);
    }
    serial.run();
    pooled.run();

    for (const std::string &k : keys)
        EXPECT_EQ(dumpRunResult(serial.result(k)),
                  dumpRunResult(pooled.result(k)))
            << "serial vs 4-worker divergence at " << k;
}

TEST(TopologyScaleoutTest, DefaultMachinesPinnedThroughTopologyPath)
{
    // The topology path must reproduce the hand-wired machines
    // bit-exactly — this is what keeps the pre-existing golden
    // snapshots valid.
    {
        const RunResult direct =
            runSpecMix(SystemConfig{}, {"mcf"}, 20000, 5000);
        const RunResult viaSpec = runSpecMix(
            configFromTopology("cores=1"), {"mcf"}, 20000, 5000);
        EXPECT_EQ(dumpRunResult(direct), dumpRunResult(viaSpec));
    }
    {
        SystemConfig manual;
        manual.numCores = 8;
        const std::vector<std::string> mix = cyclingMix(8);
        const RunResult direct = runSpecMix(manual, mix, kInstr, kWarm);
        const RunResult viaSpec = runSpecMix(configFromTopology("cores=8"),
                                             mix, kInstr, kWarm);
        EXPECT_EQ(dumpRunResult(direct), dumpRunResult(viaSpec));
    }
}

TEST(TopologyScaleoutTest, TightArbitrationEngagesAndStaysConsistent)
{
    // A deliberately starved LLC: 2 MSHRs and 4 demand lookups per
    // window per core. The arbiter must actually defer work, and the
    // invariant walk must accept the resulting state.
    const SystemConfig cfg =
        configFromTopology("cores=8,mshr_quota=2,bw=4");
    System sys(cfg, workloadsFor(cfg));
    sys.run(4000);

    const obs::Totals totals = sys.metrics().totals();
    EXPECT_GT(totals.counter("llc.arb.mshr_deferred") +
                  totals.counter("llc.arb.bw_deferred"),
              0u)
        << "starved arbitration never deferred anything";
    for (std::size_t s = 0; s < sys.llcSlices(); ++s)
        EXPECT_NO_THROW(sys.llc(s).checkInvariants());
}

#if defined(TACSIM_VERIFY_ENABLED) || !defined(NDEBUG)
// TACSIM_DCHECK is compiled out in plain release builds; the guards are
// exercised in debug and verify lanes.
TEST(TopologyScaleoutDeathTest, AccessorsBeforeFirstRunAbort)
{
    SystemConfig cfg;
    std::vector<std::unique_ptr<Workload>> w;
    w.push_back(makeWorkload(Benchmark::mcf, cfg.seed));
    System sys(cfg, std::move(w));
    EXPECT_DEATH_IF_SUPPORTED(sys.threadCycles(0),
                              "threadCycles\\(\\) before any run");
    EXPECT_DEATH_IF_SUPPORTED(sys.finishCycle(0),
                              "finishCycle\\(\\) before any run");
}

TEST(TopologyScaleoutDeathTest, OutOfRangeThreadIndexAborts)
{
    SystemConfig cfg;
    std::vector<std::unique_ptr<Workload>> w;
    w.push_back(makeWorkload(Benchmark::mcf, cfg.seed));
    System sys(cfg, std::move(w));
    sys.run(2000);
    EXPECT_DEATH_IF_SUPPORTED(sys.threadCycles(99),
                              "threadCycles\\(\\) thread index out of "
                              "range");
    EXPECT_DEATH_IF_SUPPORTED(sys.finishCycle(99),
                              "finishCycle\\(\\) thread index out of "
                              "range");
}
#endif

} // namespace
} // namespace tacsim
