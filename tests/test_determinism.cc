/**
 * @file
 * Determinism tests: the same benchmark×config point, run twice with
 * the same seed, must produce byte-identical stats dumps — serially and
 * across the sweep runner's thread pool (TACSIM_JOBS=4 equivalent).
 * These pin the engine's bit-reproducibility contract so fast-path
 * rewrites (calendar event queue, pooled requests, open-addressed
 * MSHRs) cannot introduce platform- or schedule-dependent behavior.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "sim/sweep.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 30000;
constexpr std::uint64_t kWarmup = 8000;

struct Point
{
    const char *name;
    const char *spec;
    bool proposed;
    double thp2m = 0.0;
    bool nested = false;
};

const Point kPoints[] = {
    {"xalancbmk_baseline", "xalancbmk", false},
    {"xalancbmk_proposed", "xalancbmk", true},
    {"mcf_baseline", "mcf", false},
    {"canneal_proposed", "canneal", true},
    {"pr_baseline", "pr", false},
    {"mcf_thp", "mcf", false, 0.5},
    {"xalancbmk_nested", "xalancbmk", false, 0.0, true},
};

SystemConfig
configFor(const Point &p)
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

TEST(Determinism, RepeatedSerialRunsAreByteIdentical)
{
    for (const Point &p : kPoints) {
        const SystemConfig cfg = configFor(p);
        const std::string first =
            dumpRunResult(runSpecMix(cfg, {p.spec}, kInstr, kWarmup));
        const std::string second =
            dumpRunResult(runSpecMix(cfg, {p.spec}, kInstr, kWarmup));
        EXPECT_EQ(first, second) << p.name << ": two serial runs with "
                                    "the same seed diverged";
    }
}

TEST(Determinism, ThreadPoolRunsMatchSerialRuns)
{
    // Every point twice across a 4-worker pool: concurrent execution
    // and completion order must not leak into the results.
    SweepRunner sweep(4);
    for (const Point &p : kPoints) {
        const SystemConfig cfg = configFor(p);
        sweep.add(std::string(p.name) + "#a", cfg, {p.spec}, kInstr,
                  kWarmup);
        sweep.add(std::string(p.name) + "#b", cfg, {p.spec}, kInstr,
                  kWarmup);
    }
    sweep.run();

    for (const Point &p : kPoints) {
        const SystemConfig cfg = configFor(p);
        const std::string serial =
            dumpRunResult(runSpecMix(cfg, {p.spec}, kInstr, kWarmup));
        const std::string a = dumpRunResult(
            sweep.result(std::string(p.name) + "#a"));
        const std::string b = dumpRunResult(
            sweep.result(std::string(p.name) + "#b"));
        EXPECT_EQ(a, b) << p.name
                        << ": pool runs of the same point diverged";
        EXPECT_EQ(serial, a)
            << p.name << ": pool run differs from serial run";
    }
}

TEST(Determinism, DifferentSeedsActuallyDiverge)
{
    // Sanity check that the dump is sensitive enough to catch drift:
    // perturbing the seed must change it.
    SystemConfig a{};
    SystemConfig b{};
    b.seed = a.seed + 1;
    const std::string da = dumpRunResult(
        runSpecMix(a, {"xalancbmk"}, kInstr, kWarmup));
    const std::string db = dumpRunResult(
        runSpecMix(b, {"xalancbmk"}, kInstr, kWarmup));
    EXPECT_NE(da, db) << "stats dump is insensitive to the seed — the "
                         "determinism tests would be vacuous";
}

} // namespace
} // namespace tacsim
