/**
 * @file
 * Trace subsystem tests: tacsim-trace-v1 encoding primitives, writer ↔
 * reader round trips, integrity verification, the ChampSim importer,
 * and the subsystem's headline guarantee — recording a synthetic run
 * and replaying the file produces a byte-identical canonical stats dump
 * (the live generator and the trace are interchangeable inputs).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "sim/runner.hh"
#include "sim/stats_dump.hh"
#include "sim/sweep.hh"
#include "trace/champsim.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

#ifndef TACSIM_TEST_DATA_DIR
#error "TACSIM_TEST_DATA_DIR must point at tests/data"
#endif

namespace tacsim {
namespace {

std::string
tmpPath(const std::string &stem)
{
    return ::testing::TempDir() + "tacsim_" + stem + "_" +
        std::to_string(::getpid()) + ".tactrc";
}

// --- encoding primitives ---

TEST(TraceFormat, VarintRoundTrip)
{
    std::vector<unsigned char> buf;
    const std::uint64_t values[] = {0,     1,          127,
                                    128,   16383,      16384,
                                    1u << 20, ~std::uint64_t{0}};
    for (std::uint64_t v : values)
        trace::appendVarint(buf, v);

    std::size_t pos = 0;
    auto take = [&]() {
        std::uint64_t v = 0;
        for (unsigned shift = 0;; shift += 7) {
            const unsigned char b = buf[pos++];
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                return v;
        }
    };
    for (std::uint64_t v : values)
        EXPECT_EQ(take(), v);
    EXPECT_EQ(pos, buf.size());
}

TEST(TraceFormat, ZigzagRoundTrip)
{
    for (std::int64_t v :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1},
          std::int64_t{1} << 40, -(std::int64_t{1} << 40),
          std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()})
        EXPECT_EQ(trace::zigzagDecode(trace::zigzagEncode(v)), v);
    // Small magnitudes stay small (that is the point of the fold).
    EXPECT_EQ(trace::zigzagEncode(-1), 1u);
    EXPECT_EQ(trace::zigzagEncode(1), 2u);
}

TEST(TraceFormat, Crc32MatchesKnownVector)
{
    // The IEEE CRC-32 check value for "123456789".
    const char *s = "123456789";
    EXPECT_EQ(crc32(0, s, 9), 0xCBF43926u);
    // Incremental accumulation must match one-shot.
    std::uint32_t crc = crc32(0, s, 4);
    crc = crc32(crc, s + 4, 5);
    EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(TraceFormat, CodecRoundTripsAndRejectsOverruns)
{
    SerialWriter w;
    w.putU8(0xA5);
    w.putU16(0xBEEF);
    w.putU32(0xDEADBEEFu);
    w.putU64(0x0123456789ABCDEFull);
    w.putString("tacsim");
    // 1 + 2 + 4 + 8 bytes, then an 8-byte length prefix and 6 bytes.
    EXPECT_EQ(w.bytes().size(), 29u);
    EXPECT_EQ(w.bytes().substr(0, 3), std::string("\xA5\xEF\xBE"));

    SerialReader r(w.bytes());
    EXPECT_EQ(r.getU8(), 0xA5u);
    EXPECT_EQ(r.getU16(), 0xBEEFu);
    EXPECT_EQ(r.getU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.getU64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.getString(), "tacsim");
    EXPECT_EQ(r.remaining(), 0u);

    // A byte run longer than what is left throws, whatever its size.
    SerialReader shortRead(w.bytes());
    shortRead.getU8();
    EXPECT_THROW(shortRead.getBytes(w.bytes().size()), std::runtime_error);
    EXPECT_THROW(shortRead.getBytes(~std::uint64_t{0}), std::runtime_error);

    // So does a length prefix that claims more bytes than follow it.
    SerialWriter lie;
    lie.putU64(7);
    lie.putBytes("abc");
    SerialReader liar(lie.bytes());
    EXPECT_THROW(liar.getString(), std::runtime_error);
}

// --- writer ↔ reader ---

std::vector<TraceRecord>
randomRecords(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TraceRecord> out;
    out.reserve(n);
    Addr ip = 0x400000;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        ip += rng.range(32) * 4;
        r.ip = ip;
        const std::uint64_t k = rng.range(10);
        if (k < 5) {
            r.kind = TraceRecord::Kind::Load;
            r.vaddr = (Addr{1} << 40) + rng.range(1u << 30);
            r.dependsOnPrevLoad = rng.chance(0.3);
        } else if (k < 7) {
            r.kind = TraceRecord::Kind::Store;
            r.vaddr = (Addr{1} << 41) + rng.range(1u << 24);
        }
        out.push_back(r);
    }
    return out;
}

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b)
{
    EXPECT_EQ(a.ip, b.ip);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.vaddr, b.vaddr);
    EXPECT_EQ(a.dependsOnPrevLoad, b.dependsOnPrevLoad);
}

TEST(TraceFile, WriteReadRoundTrip)
{
    const std::string path = tmpPath("roundtrip");
    const std::vector<TraceRecord> records = randomRecords(5000, 17);

    {
        trace::TraceHeader h;
        h.name = "synthetic";
        h.footprint = 123456789;
        h.seed = 42;
        trace::TraceWriter w(path, h);
        for (const TraceRecord &r : records)
            w.append(r);
        w.finalize();
        EXPECT_EQ(w.recordCount(), records.size());
    }

    trace::TraceReader reader(path);
    EXPECT_EQ(reader.header().name, "synthetic");
    EXPECT_EQ(reader.header().footprint, 123456789u);
    EXPECT_EQ(reader.header().seed, 42u);
    ASSERT_EQ(reader.header().recordCount, records.size());

    TraceRecord r;
    for (const TraceRecord &expected : records) {
        ASSERT_TRUE(reader.next(r));
        expectSameRecord(expected, r);
    }
    EXPECT_FALSE(reader.next(r));

    // rewind() restarts the stream identically (EOF-loop support).
    reader.rewind();
    ASSERT_TRUE(reader.next(r));
    expectSameRecord(records[0], r);

    std::remove(path.c_str());
}

TEST(TraceFile, WorkloadLoopsAtEof)
{
    const std::string path = tmpPath("loop");
    const std::vector<TraceRecord> records = randomRecords(7, 23);
    {
        trace::TraceHeader h;
        h.name = "tiny";
        trace::TraceWriter w(path, h);
        for (const TraceRecord &r : records)
            w.append(r);
        w.finalize();
    }

    trace::TraceFileWorkload wl(path);
    EXPECT_EQ(wl.name(), "tiny");
    for (int lap = 0; lap < 3; ++lap)
        for (const TraceRecord &expected : records) {
            const TraceRecord got = wl.next();
            expectSameRecord(expected, got);
        }

    std::remove(path.c_str());
}

TEST(TraceFile, VerifyPassesAndCatchesCorruption)
{
    const std::string path = tmpPath("verify");
    {
        trace::TraceHeader h;
        h.name = "v";
        trace::TraceWriter w(path, h);
        for (const TraceRecord &r : randomRecords(2000, 5))
            w.append(r);
        w.finalize();
    }
    EXPECT_TRUE(trace::verifyTraceFile(path).ok);

    std::string good;
    {
        std::ifstream f(path, std::ios::binary);
        good.assign(std::istreambuf_iterator<char>(f), {});
    }
    const std::string copy = tmpPath("verify_copy");
    auto verifyBytes = [&](const std::string &bytes) {
        std::ofstream(copy, std::ios::binary) << bytes;
        return trace::verifyTraceFile(copy);
    };

    // Flip one payload byte: CRC (or decode) must catch it.
    std::string flipped = good;
    flipped[trace::kHeaderFixedBytes + 1 /* name "v" */ + 100] ^= 0x40;
    const trace::VerifyResult bad = verifyBytes(flipped);
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());

    // Bytes inserted before the footer decode as nothing, but the CRC
    // covers them: a few, and a run longer than one 64 KiB read.
    const std::size_t foot = good.size() - trace::kFooterBytes;
    for (std::size_t n : {std::size_t{3}, std::size_t{70000}}) {
        const std::string grown =
            good.substr(0, foot) + std::string(n, 'x') + good.substr(foot);
        EXPECT_EQ(verifyBytes(grown).error, "payload CRC mismatch") << n;
    }

    // Each footer field on its own: magic, record count (2000 → 2001 in
    // its low byte), CRC.
    std::string magic = good;
    magic[foot] ^= 0x01;
    EXPECT_EQ(verifyBytes(magic).error, "bad footer magic");
    std::string count = good;
    ++count[foot + trace::kEndMagic.size()];
    EXPECT_EQ(verifyBytes(count).error,
              "record count mismatch (header 2000, footer 2001)");
    std::string crc = good;
    crc[foot + trace::kEndMagic.size() + 8] ^= 0x01;
    EXPECT_EQ(verifyBytes(crc).error, "payload CRC mismatch");

    std::remove(copy.c_str());
    std::remove(path.c_str());
}

TEST(TraceFile, RejectsGarbageAndMissingFiles)
{
    EXPECT_THROW(trace::TraceReader("/nonexistent/file.tactrc"),
                 std::runtime_error);

    const std::string path = tmpPath("garbage");
    {
        std::ofstream f(path, std::ios::binary);
        f << "this is not a trace file at all";
    }
    EXPECT_THROW(trace::TraceReader{path}, std::runtime_error);
    EXPECT_FALSE(trace::verifyTraceFile(path).ok);
    std::remove(path.c_str());
}

TEST(TraceFile, TruncatedFilesFailWithDiagnostics)
{
    const std::string path = tmpPath("trunc");
    {
        trace::TraceHeader h;
        h.name = "t";
        trace::TraceWriter w(path, h);
        for (const TraceRecord &r : randomRecords(2000, 9))
            w.append(r);
        w.finalize();
    }
    long size = 0;
    {
        std::ifstream f(path, std::ios::binary | std::ios::ate);
        size = static_cast<long>(f.tellg());
    }

    // Half the payload gone: the header still promises 2000 records, so
    // decoding must stop at the (supposed) footer boundary and name the
    // shortfall rather than misdecode footer bytes as records.
    ASSERT_EQ(::truncate(path.c_str(), size / 2), 0);
    trace::TraceReader reader(path);
    EXPECT_EQ(reader.header().recordCount, 2000u);
    try {
        TraceRecord r;
        while (reader.next(r)) {
        }
        FAIL() << "decoding a truncated payload should throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("payload truncated (decoded"),
                  std::string::npos)
            << e.what();
    }
    const trace::VerifyResult half = trace::verifyTraceFile(path);
    EXPECT_FALSE(half.ok);
    EXPECT_NE(half.error.find("payload truncated"), std::string::npos)
        << half.error;

    // Cut down to the header plus a few payload bytes: no room is left
    // for the footer, which the constructor reports up front.
    ASSERT_EQ(::truncate(path.c_str(),
                         static_cast<long>(trace::kHeaderFixedBytes) + 5),
              0);
    try {
        trace::TraceReader again(path);
        FAIL() << "opening a footer-less file should throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("no room for footer"),
                  std::string::npos)
            << e.what();
    }
    const trace::VerifyResult cut = trace::verifyTraceFile(path);
    EXPECT_FALSE(cut.ok);
    EXPECT_NE(cut.error.find("no room for footer"), std::string::npos)
        << cut.error;

    std::remove(path.c_str());
}

TEST(TraceFile, VerifyRejectsEmptyTrace)
{
    const std::string path = tmpPath("empty");
    {
        trace::TraceHeader h;
        h.name = "e";
        trace::TraceWriter w(path, h);
        w.finalize(); // zero records, structurally valid otherwise
    }
    // The header still parses (info-style reads work)...
    trace::TraceReader reader(path);
    EXPECT_EQ(reader.header().recordCount, 0u);
    TraceRecord r;
    EXPECT_FALSE(reader.next(r));
    // ...but verify and replay both reject a trace with nothing in it.
    const trace::VerifyResult v = trace::verifyTraceFile(path);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("empty trace (0 records)"), std::string::npos)
        << v.error;
    EXPECT_THROW(trace::TraceFileWorkload{path}, std::runtime_error);
    std::remove(path.c_str());
}

TEST(TraceFile, SpecParserRejectsUnknownSpecs)
{
    EXPECT_THROW(makeWorkloadFromSpec("no-such-benchmark"),
                 std::runtime_error);
    EXPECT_THROW(makeWorkloadFromSpec("trace:"), std::runtime_error);
    EXPECT_THROW(makeWorkloadFromSpec("trace:/nonexistent.tactrc"),
                 std::runtime_error);
    // Benchmark names resolve exactly like makeWorkload().
    for (Benchmark b : kAllBenchmarks) {
        const auto wl = makeWorkloadFromSpec(benchmarkName(b), 3);
        EXPECT_EQ(wl->name(), benchmarkName(b));
    }
}

// --- the headline guarantee: record → replay is stats-identical ---

constexpr std::uint64_t kRtInstructions = 8000;
constexpr std::uint64_t kRtWarmup = 2000;

class TraceRoundTrip : public ::testing::TestWithParam<Benchmark>
{
};

TEST_P(TraceRoundTrip, ReplayMatchesLiveGeneratorByteForByte)
{
    const Benchmark b = GetParam();
    const SystemConfig cfg{};
    const std::string path = tmpPath("rt_" + benchmarkName(b));

    // Live run, straight from the generator.
    const RunResult live =
        runSpecMix(cfg, {benchmarkName(b)}, kRtInstructions, kRtWarmup);
    const std::string liveDump = dumpRunResult(live);

    // Recording run: same generator teed through a TraceWriter. The
    // decorator must be transparent — identical dump.
    auto writer = std::make_shared<trace::TraceWriter>(
        path, trace::RecordingWorkload::headerFor(
                  *makeWorkload(b, cfg.seed), cfg.seed));
    std::vector<std::unique_ptr<Workload>> wls;
    wls.push_back(std::make_unique<trace::RecordingWorkload>(
        makeWorkload(b, cfg.seed), writer));
    const RunResult recorded =
        runWorkloads(cfg, std::move(wls), kRtInstructions, kRtWarmup);
    writer->finalize();
    EXPECT_EQ(dumpRunResult(recorded), liveDump)
        << "recording must not perturb the run";

    ASSERT_TRUE(trace::verifyTraceFile(path).ok);

    // Replay run, driven purely by the file.
    const RunResult replayed =
        runSpecMix(cfg, {"trace:" + path}, kRtInstructions, kRtWarmup);
    const std::vector<std::string> diffs =
        diffDumps(liveDump, dumpRunResult(replayed));
    EXPECT_TRUE(diffs.empty())
        << "replay diverged from the live generator: " << diffs.size()
        << " field(s), first: " << (diffs.empty() ? "" : diffs[0]);
    EXPECT_EQ(dumpRunResult(replayed), liveDump);

    std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, TraceRoundTrip,
    ::testing::Values(Benchmark::xalancbmk, Benchmark::canneal,
                      Benchmark::mcf, Benchmark::pr),
    [](const ::testing::TestParamInfo<Benchmark> &info) {
        return benchmarkName(info.param);
    });

// --- ChampSim import ---

void
putLe64(std::vector<unsigned char> &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(static_cast<unsigned char>(v >> (8 * i)));
}

/** Append one ChampSim input_instr record (64 bytes). */
void
putChampSim(std::vector<unsigned char> &out, std::uint64_t ip,
            std::vector<unsigned char> destRegs,
            std::vector<unsigned char> srcRegs,
            std::vector<std::uint64_t> destMem,
            std::vector<std::uint64_t> srcMem)
{
    putLe64(out, ip);
    out.push_back(0); // is_branch
    out.push_back(0); // branch_taken
    destRegs.resize(2);
    srcRegs.resize(4);
    destMem.resize(2);
    srcMem.resize(4);
    out.insert(out.end(), destRegs.begin(), destRegs.end());
    out.insert(out.end(), srcRegs.begin(), srcRegs.end());
    for (std::uint64_t v : destMem)
        putLe64(out, v);
    for (std::uint64_t v : srcMem)
        putLe64(out, v);
}

trace::ByteSource
memorySource(const std::vector<unsigned char> &bytes)
{
    auto pos = std::make_shared<std::size_t>(0);
    return [&bytes, pos](void *buf, std::size_t n) {
        const std::size_t left = bytes.size() - *pos;
        const std::size_t take = std::min(n, left);
        if (take == 0)
            return take; // an empty vector's data() may be null
        std::memcpy(buf, bytes.data() + *pos, take);
        *pos += take;
        return take;
    };
}

TEST(ChampSimImport, MapsRecordsAndLoadDependences)
{
    const Addr base = Addr{1} << 32;
    std::vector<unsigned char> in;
    // 0: load [base] -> r5
    putChampSim(in, 0x1000, {5}, {}, {}, {base});
    // 1: load [base+64] via r5 -> r6  (pointer chase: dependent)
    putChampSim(in, 0x1004, {6}, {5}, {}, {base + 64});
    // 2: store [base+128] addressed via r6 (dependent on load 1)
    putChampSim(in, 0x1008, {}, {6}, {base + 128}, {});
    // 3: ALU overwrites r6 (kills the dependence)
    putChampSim(in, 0x100c, {6}, {}, {}, {});
    // 4: load [base+192] via r6 — r6 no longer holds load data
    putChampSim(in, 0x1010, {7}, {6}, {}, {base + 192});
    // 5: no memory, no registers — plain NonMem filler
    putChampSim(in, 0x1014, {}, {}, {}, {});

    const std::string path = tmpPath("champsim");
    trace::ChampSimImportOptions opts;
    opts.name = "cs-sample";
    const trace::ChampSimImportStats stats =
        trace::importChampSim(memorySource(in), path, opts);

    EXPECT_EQ(stats.instructions, 6u);
    EXPECT_EQ(stats.records, 6u);
    EXPECT_EQ(stats.loads, 3u);
    EXPECT_EQ(stats.stores, 1u);
    EXPECT_EQ(stats.nonMem, 2u);
    EXPECT_EQ(stats.dependent, 2u);

    ASSERT_TRUE(trace::verifyTraceFile(path).ok);
    trace::TraceReader reader(path);
    EXPECT_EQ(reader.header().name, "cs-sample");
    // Footprint derived from the observed span: base..base+192.
    EXPECT_EQ(reader.header().footprint, 193u);

    TraceRecord r;
    ASSERT_TRUE(reader.next(r)); // 0: independent load
    EXPECT_TRUE(r.isLoad());
    EXPECT_EQ(r.vaddr, base);
    EXPECT_FALSE(r.dependsOnPrevLoad);
    ASSERT_TRUE(reader.next(r)); // 1: dependent load
    EXPECT_TRUE(r.isLoad());
    EXPECT_TRUE(r.dependsOnPrevLoad);
    ASSERT_TRUE(reader.next(r)); // 2: dependent store
    EXPECT_TRUE(r.isStore());
    EXPECT_TRUE(r.dependsOnPrevLoad);
    ASSERT_TRUE(reader.next(r)); // 3: NonMem
    EXPECT_FALSE(r.isMem());
    ASSERT_TRUE(reader.next(r)); // 4: load, dependence was killed
    EXPECT_TRUE(r.isLoad());
    EXPECT_FALSE(r.dependsOnPrevLoad);
    ASSERT_TRUE(reader.next(r)); // 5: NonMem
    EXPECT_FALSE(r.isMem());
    EXPECT_FALSE(reader.next(r));

    std::remove(path.c_str());
}

TEST(ChampSimImport, RejectsTruncatedAndEmptyInputs)
{
    std::vector<unsigned char> in;
    putChampSim(in, 0x1000, {}, {}, {}, {Addr{1} << 32});
    in.resize(in.size() - 3); // torn final record

    const std::string path = tmpPath("champsim_bad");
    EXPECT_THROW(trace::importChampSim(memorySource(in), path, {}),
                 std::runtime_error);

    const std::vector<unsigned char> empty;
    EXPECT_THROW(trace::importChampSim(memorySource(empty), path, {}),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(ChampSimImport, ImportedTraceRunsThroughRunnerAndSweep)
{
    // A few thousand synthetic ChampSim instructions: a pointer-chasing
    // load stream over a wide region with periodic stores.
    std::vector<unsigned char> in;
    Rng rng(99);
    const Addr heap = Addr{1} << 33;
    for (int i = 0; i < 4000; ++i) {
        const Addr a = heap + rng.range(1u << 26) * 64;
        if (i % 7 == 3)
            putChampSim(in, 0x2000 + (i % 13) * 4, {}, {9},
                        {a + 8}, {});
        else
            putChampSim(in, 0x2000 + (i % 13) * 4, {9}, {9}, {}, {a});
    }

    const std::string path = tmpPath("champsim_e2e");
    trace::ChampSimImportOptions opts;
    opts.name = "cs-e2e";
    trace::importChampSim(memorySource(in), path, opts);
    ASSERT_TRUE(trace::verifyTraceFile(path).ok);

    // End to end through the runner...
    const SystemConfig cfg{};
    const RunResult direct =
        runSpecMix(cfg, {"trace:" + path}, 6000, 1500);
    EXPECT_EQ(direct.benchmark, "cs-e2e");
    EXPECT_GE(direct.instructions, 6000u);
    EXPECT_GT(direct.cycles, 0u);

    // ...and through a sweep point, which must agree byte for byte.
    SweepRunner sweep(2);
    sweep.add("cs-e2e/baseline", cfg, {"trace:" + path}, 6000, 1500);
    sweep.run();
    const RunResult &viaSweep = sweep.result("cs-e2e/baseline");
    EXPECT_EQ(dumpRunResult(viaSweep), dumpRunResult(direct));
    const SweepOutcome *o = sweep.outcome("cs-e2e/baseline");
    ASSERT_NE(o, nullptr);
    EXPECT_TRUE(o->ok);
    EXPECT_EQ(o->benchmark, "cs-e2e");

    std::remove(path.c_str());
}

// --- committed sample trace (offline replay, no generator needed) ---

TEST(SampleTrace, CommittedSampleVerifiesAndReplays)
{
    const std::string path =
        std::string(TACSIM_TEST_DATA_DIR) + "/xalancbmk_small.tactrc";

    const trace::VerifyResult v = trace::verifyTraceFile(path);
    ASSERT_TRUE(v.ok) << v.error;
    EXPECT_EQ(v.header.name, "xalancbmk");
    EXPECT_GT(v.header.recordCount, 1000u);

    const SystemConfig cfg{};
    const RunResult r = runSpecMix(cfg, {"trace:" + path}, 3000, 1000);
    EXPECT_EQ(r.benchmark, "xalancbmk");
    EXPECT_GE(r.instructions, 3000u);
    EXPECT_GT(r.ipc, 0.0);

    // Replay is deterministic: run twice, byte-identical dumps.
    const RunResult again =
        runSpecMix(cfg, {"trace:" + path}, 3000, 1000);
    EXPECT_EQ(dumpRunResult(again), dumpRunResult(r));
}

} // namespace
} // namespace tacsim
