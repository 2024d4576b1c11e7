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
 * A restore validates what it reads: a component's state with one byte
 * patched out of range must be refused, not installed.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/repl/ship.hh"
#include "common/serialize.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "sim/system.hh"
#include "test_util.hh"
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
    /** Policy at both the L2C and the LLC (default: the config's). */
    std::optional<PolicyKind> policy{};
    unsigned smt = 1;
    /** 4 cores, 2 LLC slices 2 cycles apart, an MSHR quota of 16 and
     *  32 bandwidth tokens per core (default: one core). */
    bool sliced = false;
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
    if (p.policy)
        cfg.l2Policy = cfg.llcPolicy = *p.policy;
    cfg.threadsPerCore = p.smt;
    if (p.sliced) {
        cfg.numCores = 4;
        cfg.llcSlices = 2;
        cfg.llcSliceHopLatency = 2;
        cfg.llcMshrQuotaPerCore = 16;
        cfg.llcBwTokensPerCore = 32;
    }
    return cfg;
}

TEST(Checkpoint, RestoreMatchesStraightThroughByteForByte)
{
    const Point points[] = {
        {"xalancbmk_baseline", "xalancbmk"},
        {"mcf_proposed", "mcf", true},
        {"canneal_thp", "canneal", false, 0.5},
        {"xalancbmk_nested", "xalancbmk", false, 0.0, true},
        // The other policies with a state() of their own (RNGs, RRPVs),
        // at the L2C and the LLC.
        {.name = "radii_random", .spec = "radii",
         .policy = PolicyKind::Random},
        {.name = "radii_srrip", .spec = "radii", .policy = PolicyKind::SRRIP},
        {.name = "radii_brrip", .spec = "radii", .policy = PolicyKind::BRRIP},
        {.name = "cc_smt2", .spec = "cc", .smt = 2},
        // Slices, hop latency and the arbiter's MSHR/token counters.
        {.name = "mcf_topology_proposed", .spec = "mcf", .proposed = true,
         .sliced = true},
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

    auto expectRejected = [&](const std::string &stem,
                              const std::string &corrupt) {
        SCOPED_TRACE(stem);
        const std::string cpath = tmpPath(stem);
        std::ofstream out(cpath, std::ios::binary);
        out.write(corrupt.data(),
                  static_cast<std::streamsize>(corrupt.size()));
        out.close();
        EXPECT_THROW(
            runSpecMix(cfg, specs, kInstr, kWarm, {.load = cpath}),
            std::runtime_error);
        std::remove(cpath.c_str());
    };

    // Truncation: drop the CRC footer plus some payload.
    expectRejected("truncated", bytes.substr(0, bytes.size() - 32));

    // Bit rot in the payload: the CRC check must fire.
    std::string flipped = bytes;
    flipped[flipped.size() / 2] ^= 0x40;
    expectRejected("bitflip", flipped);

    // Wrong magic: rejected before anything else is read.
    std::string bad = bytes;
    bad[0] = 'X';
    expectRejected("badmagic", bad);

    // A length field claiming more bytes than the file holds is
    // refused before it can size an allocation: the key length after
    // the 8-byte magic and the u32 version, and the payload length
    // after the key.
    const auto withU64At = [&](std::size_t at, std::uint64_t v) {
        SerialWriter w;
        w.putU64(v);
        return std::string(bytes).replace(at, 8, w.bytes());
    };
    const std::uint64_t keyLen =
        SerialReader(std::string_view(bytes).substr(12)).getU64();
    expectRejected("keylen", withU64At(12, std::uint64_t{1} << 40));
    expectRejected("payloadlen",
                   withU64At(20 + keyLen, std::uint64_t{1} << 30));

    std::remove(path.c_str());
}

TEST(Checkpoint, UnsupportedComponentsAreGated)
{
    // Prefetchers keep private state that checkpoints do not serialize
    // yet; saving must refuse loudly instead of writing a checkpoint
    // that restores to a subtly different machine.
    SystemConfig cfg{};
    cfg.l2Prefetcher = PrefetcherKind::IpStride;
    const std::vector<std::string> specs(1, "mcf");
    EXPECT_THROW(
        runSpecMix(cfg, specs, kInstr, kWarm, {.save = tmpPath("gated")}),
        std::runtime_error);
}

TEST(Checkpoint, SavingTwiceGivesTheSameBytes)
{
    // A save pass reads the machine through the same function a restore
    // writes it with; it must leave the machine as it found it.
    SystemConfig cfg{};
    TranslationAwareOptions ta;
    ta.tempo = true;
    applyTranslationAware(cfg, ta);
    std::vector<std::unique_ptr<Workload>> workloads;
    workloads.push_back(makeWorkload(Benchmark::pr));
    System sys(cfg, std::move(workloads));
    sys.warmup(kWarm);
    sys.quiesce();
    const auto save = [&sys] {
        SerialWriter w;
        StateArchive ar(w);
        sys.state(ar);
        return w.bytes();
    };
    const std::string first = save();
    EXPECT_EQ(first, save());
}

// --- restore validation: one component, one patched byte ---

/** Save @p saved and restore the bytes into @p fresh, which must work;
 *  then set byte @p at to @p value and restore again, which must throw. */
template <typename Component>
void
expectPatchRejected(Component &saved, Component &fresh, std::size_t at,
                    std::uint8_t value)
{
    SerialWriter w;
    StateArchive save(w);
    saved.state(save);
    std::string bytes = w.bytes();
    ASSERT_LT(at, bytes.size());

    SerialReader clean(bytes);
    StateArchive restoreClean(clean);
    ASSERT_NO_THROW(fresh.state(restoreClean));
    EXPECT_TRUE(clean.atEnd());

    bytes[at] = static_cast<char>(value);
    SerialReader patched(bytes);
    StateArchive restorePatched(patched);
    EXPECT_THROW(fresh.state(restorePatched), std::runtime_error);
}

// SHiP's layout: the RRPV count and one RRPV per block, the SHCT size
// and its counters, the block count and a u32 signature per block, then
// one outcome byte per block.
constexpr std::uint32_t kSets = 4;
constexpr std::uint32_t kWays = 2;
constexpr std::size_t kShipSig0 =
    8 + kSets * kWays + 8 + ShipPolicy::kShctSize + 8;
constexpr std::size_t kShipOutcome0 = kShipSig0 + 4 * kSets * kWays;

TEST(CheckpointRestore, ShipSignaturePastTheShctIsRejected)
{
    // Block 0's signature is 0; a second byte of 0x40 makes it 16384,
    // one past the SHCT, which the block's next hit would index.
    ShipPolicy saved(kSets, kWays, {});
    ShipPolicy fresh(kSets, kWays, {});
    expectPatchRejected(saved, fresh, kShipSig0 + 1, 0x40);
}

TEST(CheckpointRestore, ShipOutcomeAboveOneIsRejected)
{
    ShipPolicy saved(kSets, kWays, {});
    ShipPolicy fresh(kSets, kWays, {});
    expectPatchRejected(saved, fresh, kShipOutcome0, 2);
}

struct CheckpointRestoreCache : ::testing::Test
{
    EventQueue eq;
    test::MockMemory lower{eq, 100};

    std::unique_ptr<Cache>
    makeCache()
    {
        CacheParams p;
        p.sets = kSets;
        p.ways = kWays;
        return std::make_unique<Cache>(
            p, eq, &lower, makePolicy(PolicyKind::LRU, p.sets, p.ways));
    }

    // The cache's layout: the block count, then per block its tag
    // (u64), valid, dirty, reused, category, prefetch origin and fill IP.
    static constexpr std::size_t kValid0 = 8 + 8;
    static constexpr std::size_t kOrigin0 = kValid0 + 4;
};

TEST_F(CheckpointRestoreCache, BlockPrefetchOriginOutOfRangeIsRejected)
{
    auto saved = makeCache();
    auto fresh = makeCache();
    expectPatchRejected(*saved, *fresh, kOrigin0, 9);
}

TEST_F(CheckpointRestoreCache, BlockValidByteOtherThanZeroOrOneIsRejected)
{
    auto saved = makeCache();
    auto fresh = makeCache();
    expectPatchRejected(*saved, *fresh, kValid0, 2);
}

TEST(CheckpointRestore, QueuedRecordKindOutOfRangeIsRejected)
{
    // mcf generates a batch of records per hop; one next() leaves the
    // rest queued. Its layout: the RNG (four u64), four u64 cursors,
    // the queue length, then per record its IP (u64), kind (u8), ...
    auto saved = makeWorkload(Benchmark::mcf);
    auto fresh = makeWorkload(Benchmark::mcf);
    saved->next();
    expectPatchRejected(*saved, *fresh, 32 + 32 + 8 + 8, 3);
}

TEST(CheckpointRestore, CoreCursorsThatWouldStallAreRejected)
{
    // A head sequence number past the next one to dispatch would leave
    // the restored core waiting forever on an entry it never issued.
    auto build = [] {
        std::vector<std::unique_ptr<Workload>> workloads;
        workloads.push_back(makeWorkload(Benchmark::mcf));
        return std::make_unique<System>(SystemConfig{},
                                        std::move(workloads));
    };
    auto saved = build();
    auto fresh = build();
    saved->warmup(kWarm);
    saved->quiesce();

    // Core 0's head sequence number follows the "cores" section marker.
    SerialWriter w;
    StateArchive ar(w);
    saved->state(ar);
    SerialWriter marker;
    marker.beginSection("cores");
    const std::size_t at = w.bytes().find(marker.bytes()) + marker.size();
    ASSERT_LT(at, w.size());
    expectPatchRejected(*saved, *fresh, at,
                        static_cast<std::uint8_t>(w.bytes()[at] ^ 1));
}

} // namespace
} // namespace tacsim
