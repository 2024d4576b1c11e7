/**
 * @file
 * Checkpoint/restore (tacsim-ckpt-v2) determinism and safety tests.
 *
 * The contract under test: warm-up → quiesce → save → measure must be
 * byte-identical (canonical stats dump, `events` line included) to
 * building a fresh System, restoring the checkpoint, and measuring.
 * This is what lets a later process resume a warmed machine state and
 * still return results indistinguishable from a cold run. A checkpoint
 * names its point, so restoring it into any other point is an error.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "workloads/benchmarks.hh"

namespace tacsim {
namespace {

constexpr std::uint64_t kInstr = 20000;
constexpr std::uint64_t kWarm = 6000;

std::string
tmpPath(const std::string &stem)
{
    return ::testing::TempDir() + "tacsim_ckpt_" + stem + "_" +
        std::to_string(::getpid()) + ".ckpt";
}

struct Point
{
    const char *name;
    const char *spec;
    bool proposed = false;
    double thp2m = 0.0;
    bool nested = false;
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

TEST(Checkpoint, RestoreMatchesStraightThroughByteForByte)
{
    const Point points[] = {
        {"xalancbmk_baseline", "xalancbmk"},
        {"mcf_proposed", "mcf", true},
        {"canneal_thp", "canneal", false, 0.5},
        {"xalancbmk_nested", "xalancbmk", false, 0.0, true},
    };
    for (const Point &p : points) {
        SCOPED_TRACE(p.name);
        const SystemConfig cfg = configFor(p);
        const std::vector<std::string> specs(cfg.threads(), p.spec);
        const std::string path = tmpPath(p.name);

        const RunResult straight =
            runSpecMix(cfg, specs, kInstr, kWarm, {.save = path});
        const RunResult restored =
            runSpecMix(cfg, specs, kInstr, kWarm, {.load = path});

        EXPECT_EQ(dumpRunResult(straight), dumpRunResult(restored));
        std::remove(path.c_str());
    }
}

TEST(Checkpoint, MulticoreRestoreMatches)
{
    SystemConfig cfg{};
    cfg.numCores = 2;
    const std::vector<std::string> specs = {"mcf", "xalancbmk"};
    const std::string path = tmpPath("multicore");

    const RunResult straight =
        runSpecMix(cfg, specs, kInstr, kWarm, {.save = path});
    const RunResult restored =
        runSpecMix(cfg, specs, kInstr, kWarm, {.load = path});

    EXPECT_EQ(dumpRunResult(straight), dumpRunResult(restored));
    std::remove(path.c_str());
}

TEST(Checkpoint, TraceWorkloadRestoreMatches)
{
    const std::string spec = std::string("trace:") +
        TACSIM_TEST_DATA_DIR + "/xalancbmk_small.tactrc";
    SystemConfig cfg{};
    const std::vector<std::string> specs(1, spec);
    const std::string path = tmpPath("trace");

    const RunResult straight =
        runSpecMix(cfg, specs, kInstr, kWarm, {.save = path});
    const RunResult restored =
        runSpecMix(cfg, specs, kInstr, kWarm, {.load = path});

    EXPECT_EQ(dumpRunResult(straight), dumpRunResult(restored));
    std::remove(path.c_str());
}

TEST(Checkpoint, ConfigMismatchIsRejected)
{
    SystemConfig cfg{};
    const std::vector<std::string> specs(1, "mcf");
    const std::string path = tmpPath("cfgmismatch");
    runSpecMix(cfg, specs, kInstr, kWarm, {.save = path});

    SystemConfig other = cfg;
    other.stlbEntries = 1024;
    EXPECT_THROW(
        runSpecMix(other, specs, kInstr, kWarm, {.load = path}),
        std::runtime_error);
    std::remove(path.c_str());
}

TEST(Checkpoint, PointMismatchIsRejected)
{
    SystemConfig cfg{};
    const std::string path = tmpPath("pointmismatch");
    runSpecMix(cfg, {"pr"}, kInstr, kWarm, {.save = path});

    // The graph benchmarks share one state layout, so only the point
    // key tells a pr machine from a cc machine.
    EXPECT_THROW(runSpecMix(cfg, {"cc"}, kInstr, kWarm, {.load = path}),
                 std::runtime_error);
    // Same workload, but warmed for a different budget: another state.
    EXPECT_THROW(
        runSpecMix(cfg, {"pr"}, kInstr, kWarm + 1000, {.load = path}),
        std::runtime_error);
    // The saving point itself restores.
    EXPECT_NO_THROW(runSpecMix(cfg, {"pr"}, kInstr, kWarm, {.load = path}));
    // A run either saves or loads.
    EXPECT_THROW(
        runSpecMix(cfg, {"pr"}, kInstr, kWarm, {.save = path, .load = path}),
        std::invalid_argument);
    std::remove(path.c_str());
}

TEST(Checkpoint, CorruptFilesAreRejected)
{
    SystemConfig cfg{};
    const std::vector<std::string> specs(1, "mcf");
    const std::string path = tmpPath("corrupt");
    runSpecMix(cfg, specs, kInstr, kWarm, {.save = path});

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    ASSERT_GT(bytes.size(), 64u);

    // Truncation: drop the CRC footer plus some payload.
    {
        const std::string tpath = tmpPath("truncated");
        std::ofstream out(tpath, std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() - 32));
        out.close();
        EXPECT_THROW(
            runSpecMix(cfg, specs, kInstr, kWarm, {.load = tpath}),
            std::runtime_error);
        std::remove(tpath.c_str());
    }

    // Bit rot in the payload: the CRC check must fire.
    {
        const std::string fpath = tmpPath("bitflip");
        std::string flipped = bytes;
        flipped[flipped.size() / 2] ^= 0x40;
        std::ofstream out(fpath, std::ios::binary);
        out.write(flipped.data(),
                  static_cast<std::streamsize>(flipped.size()));
        out.close();
        EXPECT_THROW(
            runSpecMix(cfg, specs, kInstr, kWarm, {.load = fpath}),
            std::runtime_error);
        std::remove(fpath.c_str());
    }

    // Wrong magic: rejected before anything else is read.
    {
        const std::string mpath = tmpPath("badmagic");
        std::string bad = bytes;
        bad[0] = 'X';
        std::ofstream out(mpath, std::ios::binary);
        out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
        out.close();
        EXPECT_THROW(
            runSpecMix(cfg, specs, kInstr, kWarm, {.load = mpath}),
            std::runtime_error);
        std::remove(mpath.c_str());
    }

    std::remove(path.c_str());
}

TEST(Checkpoint, UnsupportedComponentsAreGated)
{
    // Prefetchers keep private state v1 does not serialize; saving must
    // refuse loudly instead of writing a checkpoint that restores to a
    // subtly different machine.
    SystemConfig cfg{};
    cfg.l2Prefetcher = PrefetcherKind::IpStride;
    const std::vector<std::string> specs(1, "mcf");
    EXPECT_THROW(
        runSpecMix(cfg, specs, kInstr, kWarm, {.save = tmpPath("gated")}),
        std::runtime_error);
}

} // namespace
} // namespace tacsim
