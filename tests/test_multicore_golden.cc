/**
 * @file
 * Multicore golden-run snapshots: tiny-budget 16-core and 32-core
 * heterogeneous mixes (sim/topology.hh), compared field by field
 * against snapshots in tests/golden/. This pins the multicore
 * composition path (one shared LLC, derived DRAM channels) the same
 * way test_golden.cc pins the single-core machine.
 *
 * Budgets are fixed constants (not TACSIM_INSTRUCTIONS) so the
 * snapshots cannot drift with the environment. Regeneration:
 * TACSIM_REGEN_GOLDEN=1 (scripts/regen_golden.sh drives this).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "sim/topology.hh"

#ifndef TACSIM_GOLDEN_DIR
#error "TACSIM_GOLDEN_DIR must point at tests/golden"
#endif

namespace tacsim {
namespace {

struct MulticoreGoldenPoint
{
    const char *name; ///< snapshot file stem
    SystemConfig machine;
    std::uint64_t instructions;
    std::uint64_t warmup;
};

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

bool
regenRequested()
{
    const char *v = std::getenv("TACSIM_REGEN_GOLDEN");
    return v && *v && std::string(v) != "0";
}

class MulticoreGoldenTest
    : public ::testing::TestWithParam<MulticoreGoldenPoint>
{
};

TEST_P(MulticoreGoldenTest, MatchesSnapshot)
{
    const MulticoreGoldenPoint &p = GetParam();
    const SystemConfig &cfg = p.machine;
    const RunResult r = runSpecMix(cfg, cyclingMix(cfg.threads()),
                               p.instructions, p.warmup);
    const std::string dump = dumpRunResult(r);
    const std::string path =
        std::string(TACSIM_GOLDEN_DIR) + "/" + p.name + ".txt";

    if (regenRequested()) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << dump;
        out.close();
        ASSERT_TRUE(out.good()) << "write to " << path << " failed";
        std::printf("regenerated %s\n", path.c_str());
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden snapshot " << path
        << " — run scripts/regen_golden.sh to create it";
    std::ostringstream expected;
    expected << in.rdbuf();

    const std::vector<std::string> diffs =
        diffDumps(expected.str(), dump);
    if (diffs.empty())
        return;
    std::ostringstream msg;
    msg << "golden mismatch for " << p.name << " (topology "
        << topologyText(cfg) << ", " << diffs.size() << " field(s)):\n";
    for (const std::string &d : diffs)
        msg << "  " << d << "\n";
    msg << "If the change is intentional, refresh with "
           "scripts/regen_golden.sh and review the diff.";
    FAIL() << msg.str();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MulticoreGoldenTest,
    ::testing::Values(
        MulticoreGoldenPoint{"mc16_mix", {.numCores = 16}, 4000, 1000},
        MulticoreGoldenPoint{"mc32_mix", {.numCores = 32}, 2000, 500}),
    [](const ::testing::TestParamInfo<MulticoreGoldenPoint> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tacsim
