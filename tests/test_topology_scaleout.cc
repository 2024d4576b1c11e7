/**
 * @file
 * Scale-out end-to-end tests for machines built from SystemConfig's
 * composition fields: 16/32/64-core machines from those fields alone,
 * byte-identical determinism between a serial sweep and a 4-worker
 * pool, pin tests that the default 1-core and 8-core machines' derived
 * DRAM channel counts build bit-exactly the machines with those counts
 * spelled out (so the pre-existing goldens stay valid), and the
 * death-tested accessor guards on System::threadCycles()/finishCycle().
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "workloads/benchmarks.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 3000;
constexpr std::uint64_t kWarm = 500;

/** 16 cores sharing one LLC. */
const SystemConfig kSixteenCores{.numCores = 16};

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
    const SystemConfig &cfg = kSixteenCores;
    System sys(cfg, workloadsFor(cfg));

    ASSERT_EQ(sys.threads(), 16u);
    // One 32MB LLC of 16 ways: 32768 sets.
    EXPECT_EQ(sys.llc().params().sets, 32768u);

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
}

TEST(TopologyScaleoutTest, LargeMachinesBuildFromSpecAlone)
{
    {
        SystemConfig cfg{.numCores = 32, .threadsPerCore = 2};
        cfg.dram.channels = 4;
        System sys(cfg, workloadsFor(cfg));
        EXPECT_EQ(sys.threads(), 64u);
        EXPECT_EQ(sys.dram().params().channels, 4u);
    }
    {
        SystemConfig cfg{.numCores = 64};
        cfg.llcPerCore.ways = 32;
        System sys(cfg, workloadsFor(cfg));
        EXPECT_EQ(sys.threads(), 64u);
        // 128MB / (32w * 64B) = 65536 sets.
        EXPECT_EQ(sys.llc().params().sets, 65536u);
    }
}

TEST(TopologyScaleoutTest, SerialAndPooledSweepsAreByteIdentical)
{
    const SystemConfig &cfg = kSixteenCores;

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
    // The derived DRAM channel count (one per four cores) must build
    // bit-exactly the machine with that count spelled out, the
    // hand-wired machine the pre-existing golden snapshots were taken
    // on.
    {
        SystemConfig spelled;
        spelled.dram.channels = 1;
        const RunResult derived =
            runSpecMix(SystemConfig{}, {"mcf"}, 20000, 5000);
        const RunResult direct = runSpecMix(spelled, {"mcf"}, 20000, 5000);
        EXPECT_EQ(dumpRunResult(derived), dumpRunResult(direct));
    }
    {
        SystemConfig spelled{.numCores = 8};
        spelled.dram.channels = 2;
        const std::vector<std::string> mix = cyclingMix(8);
        const RunResult derived =
            runSpecMix({.numCores = 8}, mix, kInstr, kWarm);
        const RunResult direct = runSpecMix(spelled, mix, kInstr, kWarm);
        EXPECT_EQ(dumpRunResult(derived), dumpRunResult(direct));
    }
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
