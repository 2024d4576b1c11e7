/**
 * @file
 * Golden-run snapshot tests: small-budget end-to-end runs per
 * benchmark×policy whose stats dumps are checked into tests/golden/ and
 * compared field by field. This is the safety net under engine
 * hot-path rewrites — any behavioral drift (an extra event, a different
 * miss count, a reordered fill) shows up as a named-field diff.
 *
 * Budgets are fixed constants (not TACSIM_INSTRUCTIONS) so the
 * snapshots cannot drift with the environment.
 *
 * Regeneration: TACSIM_REGEN_GOLDEN=1 rewrites the snapshots in the
 * source tree instead of comparing (scripts/regen_golden.sh drives
 * this).
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

#ifndef TACSIM_GOLDEN_DIR
#error "TACSIM_GOLDEN_DIR must point at tests/golden"
#endif

namespace tacsim {
namespace {

constexpr std::uint64_t kGoldenInstructions = 40000;
constexpr std::uint64_t kGoldenWarmup = 10000;

struct GoldenPoint
{
    const char *name; ///< snapshot file stem
    Benchmark benchmark;
    bool proposed;     ///< false = baseline DRRIP/SHiP, true = full paper
    double thp2m = 0.0; ///< fraction of 2M-backed guest regions
    bool nested = false; ///< 2D guest×host translation
};

SystemConfig
configFor(const GoldenPoint &p)
{
    SystemConfig cfg{};
    if (p.proposed) {
        TranslationAwareOptions ta;
        ta.tempo = true;
        applyTranslationAware(cfg, ta);
    }
    cfg.vm.hugePages2M = p.thp2m;
    cfg.vm.nested = p.nested;
    return cfg;
}

std::string
goldenPath(const GoldenPoint &p)
{
    return std::string(TACSIM_GOLDEN_DIR) + "/" + p.name + ".txt";
}

bool
regenRequested()
{
    const char *v = std::getenv("TACSIM_REGEN_GOLDEN");
    return v && *v && std::string(v) != "0";
}

class GoldenRunTest : public ::testing::TestWithParam<GoldenPoint>
{
};

TEST_P(GoldenRunTest, MatchesSnapshot)
{
    const GoldenPoint &p = GetParam();
    const RunResult r =
        runSpecMix(configFor(p), {benchmarkName(p.benchmark)},
                   kGoldenInstructions, kGoldenWarmup);
    const std::string dump = dumpRunResult(r);
    const std::string path = goldenPath(p);

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
    msg << "golden mismatch for " << p.name << " (" << diffs.size()
        << " field(s)):\n";
    for (const std::string &d : diffs)
        msg << "  " << d << "\n";
    msg << "If the change is intentional, refresh with "
           "scripts/regen_golden.sh and review the diff.";
    FAIL() << msg.str();
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenRunTest,
    ::testing::Values(
        GoldenPoint{"xalancbmk_baseline", Benchmark::xalancbmk, false},
        GoldenPoint{"xalancbmk_proposed", Benchmark::xalancbmk, true},
        GoldenPoint{"mcf_baseline", Benchmark::mcf, false},
        GoldenPoint{"mcf_proposed", Benchmark::mcf, true},
        GoldenPoint{"canneal_baseline", Benchmark::canneal, false},
        GoldenPoint{"canneal_proposed", Benchmark::canneal, true},
        GoldenPoint{"pr_baseline", Benchmark::pr, false},
        GoldenPoint{"pr_proposed", Benchmark::pr, true},
        GoldenPoint{"mcf_thp", Benchmark::mcf, false, 0.5},
        GoldenPoint{"mcf_nested", Benchmark::mcf, false, 0.0, true}),
    [](const ::testing::TestParamInfo<GoldenPoint> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace tacsim
