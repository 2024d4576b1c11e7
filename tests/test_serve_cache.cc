/**
 * @file
 * Tests for the persistent content-addressed result cache
 * (serve/result_cache.hh): store/lookup round-trip exactness, the
 * RunResult JSON codec, LRU eviction and gc, restart persistence, and
 * — the regression net this subsystem ships with — every corruption
 * mode (truncated entry, flipped bytes, stale index, malformed index
 * lines, orphaned objects) degrading to a clean miss, never a wrong
 * result and never a crash.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/result_cache.hh"
#include "serve/result_codec.hh"
#include "sim/stats_dump.hh"
#include "test_util.hh"

namespace tacsim {
namespace {

std::string
tmpDir(const std::string &stem)
{
    const std::string dir = ::testing::TempDir() + "tacsim_" + stem +
        "_" + std::to_string(::getpid());
    std::remove((dir + "/index.txt").c_str());
    return dir;
}

/** True when a 12-significant-digit print of @p v reads back as @p v. */
bool
exactIn12Digits(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.12g", v);
    return std::strtod(buf, nullptr) == v;
}

/**
 * A synthetic result, distinct per @p salt, with every kRunResultFields
 * row set to its own value that 12 significant digits cannot hold: a
 * codec that dropped later digits would change every field.
 */
RunResult
makeResult(unsigned salt)
{
    RunResult r;
    r.benchmark = "synthetic" + std::to_string(salt);
    std::uint64_t row = 0;
    for (const RunResultField &f : kRunResultFields) {
        ++row;
        if (f.u64) // 16 digits, still exact in a double (< 2^53)
            r.*f.u64 = (std::uint64_t{1} << 52) + 1000 * salt + row;
        else
            r.*f.f64 = std::sqrt(2.0) * double(row) + double(salt);
    }
    r.threadCycles = {r.cycles};
    r.threadInstructions = {r.instructions};
    return r;
}

std::string
fakeKey(unsigned salt)
{
    std::string key(64, '0');
    std::string tail = std::to_string(salt);
    key.replace(64 - tail.size(), tail.size(), tail);
    return key;
}

serve::CacheEntry
makeEntry(unsigned salt)
{
    serve::CacheEntry e;
    e.pointKey = fakeKey(salt);
    e.result = makeResult(salt);
    e.statsDump = dumpRunResult(e.result);
    e.runRecord = serve::makeRunRecord(e.pointKey, e.result);
    return e;
}

std::string
objectPath(const std::string &dir, const std::string &key)
{
    return dir + "/objects/" + key;
}

TEST(ResultCodec, RoundTripsEveryFieldExactly)
{
    const RunResult a = makeResult(3);
    for (const RunResultField &f : kRunResultFields) {
        if (f.u64)
            EXPECT_GE(a.*f.u64, 1000000000000u) << f.name; // 13+ digits
        else
            EXPECT_FALSE(exactIn12Digits(a.*f.f64)) << f.name;
    }
    const RunResult b = serve::runResultFromJson(
        serve::parseJson(serve::runResultToJson(a).dump()));
    test::expectSameResult(a, b);
}

TEST(ResultCodec, RejectsMissingFields)
{
    serve::JsonValue v = serve::runResultToJson(makeResult(1));
    serve::JsonObject o = v.asObject();
    o.erase("cycles");
    EXPECT_THROW(
        serve::runResultFromJson(serve::JsonValue(std::move(o))),
        std::runtime_error);
}

TEST(ResultCache, StoreLookupRoundTrip)
{
    const std::string dir = tmpDir("cache_roundtrip");
    serve::ResultCache cache(dir);
    const serve::CacheEntry in = makeEntry(1);
    EXPECT_FALSE(cache.contains(in.pointKey));
    cache.store(in);
    EXPECT_TRUE(cache.contains(in.pointKey));

    serve::CacheEntry out;
    ASSERT_TRUE(cache.lookup(in.pointKey, out));
    EXPECT_EQ(out.pointKey, in.pointKey);
    EXPECT_EQ(out.statsDump, in.statsDump); // byte-identical replay
    EXPECT_EQ(out.runRecord, in.runRecord);
    test::expectSameResult(out.result, in.result);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(ResultCache, PersistsAcrossReopen)
{
    const std::string dir = tmpDir("cache_reopen");
    const serve::CacheEntry in = makeEntry(2);
    {
        serve::ResultCache cache(dir);
        cache.store(in);
    }
    serve::ResultCache reopened(dir);
    EXPECT_EQ(reopened.entries(), 1u);
    serve::CacheEntry out;
    ASSERT_TRUE(reopened.lookup(in.pointKey, out));
    EXPECT_EQ(out.statsDump, in.statsDump);
}

TEST(ResultCache, LruEvictionPrefersColdEntries)
{
    const std::string dir = tmpDir("cache_lru");
    serve::ResultCache cache(dir);
    const serve::CacheEntry a = makeEntry(1);
    const serve::CacheEntry b = makeEntry(2);
    const serve::CacheEntry c = makeEntry(3);
    cache.store(a);
    cache.store(b);
    // Touch a: b becomes the LRU entry.
    serve::CacheEntry scratch;
    ASSERT_TRUE(cache.lookup(a.pointKey, scratch));

    cache.store(c);
    EXPECT_EQ(cache.entries(), 3u);
    // Any cap below the current total evicts LRU-first: b, not a.
    EXPECT_EQ(cache.gcToBytes(cache.totalBytes() - 1), 1u);
    EXPECT_TRUE(cache.contains(a.pointKey));
    EXPECT_FALSE(cache.contains(b.pointKey));
    EXPECT_TRUE(cache.contains(c.pointKey));
    EXPECT_EQ(cache.evictions(), 1u);
    // The object file is gone too, not just the index line.
    struct stat st{};
    EXPECT_NE(::stat(objectPath(dir, b.pointKey).c_str(), &st), 0);
}

TEST(ResultCache, MaxBytesCapEnforcedOnStore)
{
    const std::string dir = tmpDir("cache_cap");
    const serve::CacheEntry a = makeEntry(1);
    // Cap below two entries: storing the second evicts the first.
    serve::ResultCache cache(dir,
                             static_cast<std::uint64_t>(
                                 a.statsDump.size() +
                                 a.runRecord.size() + 2048));
    cache.store(a);
    cache.store(makeEntry(2));
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_FALSE(cache.contains(a.pointKey));
}

TEST(ResultCache, TruncatedEntryIsAMissNotACrash)
{
    const std::string dir = tmpDir("cache_trunc");
    serve::ResultCache cache(dir);
    const serve::CacheEntry in = makeEntry(4);
    cache.store(in);

    ASSERT_EQ(::truncate(objectPath(dir, in.pointKey).c_str(), 40), 0);
    serve::CacheEntry out;
    EXPECT_FALSE(cache.lookup(in.pointKey, out));
    EXPECT_GE(cache.corruptMisses(), 1u);
    // The corrupt entry was dropped; storing again recovers.
    cache.store(in);
    EXPECT_TRUE(cache.lookup(in.pointKey, out));
    EXPECT_EQ(out.statsDump, in.statsDump);
}

TEST(ResultCache, CrcMismatchIsAMissNotAWrongResult)
{
    const std::string dir = tmpDir("cache_bitflip");
    serve::ResultCache cache(dir);
    const serve::CacheEntry in = makeEntry(5);
    cache.store(in);

    // Flip one payload byte without changing the size.
    const std::string path = objectPath(dir, in.pointKey);
    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekg(0, std::ios::end);
    const std::streamoff size = f.tellg();
    f.seekp(size / 2);
    char c = 0;
    f.seekg(size / 2);
    f.read(&c, 1);
    f.seekp(size / 2);
    c = static_cast<char>(c ^ 0x40);
    f.write(&c, 1);
    f.close();

    serve::CacheEntry out;
    EXPECT_FALSE(cache.lookup(in.pointKey, out));
    EXPECT_GE(cache.corruptMisses(), 1u);
}

TEST(ResultCache, StaleIndexEntryIsAMiss)
{
    const std::string dir = tmpDir("cache_stale");
    serve::ResultCache cache(dir);
    const serve::CacheEntry in = makeEntry(6);
    cache.store(in);
    ASSERT_EQ(std::remove(objectPath(dir, in.pointKey).c_str()), 0);

    serve::CacheEntry out;
    EXPECT_FALSE(cache.lookup(in.pointKey, out));
    EXPECT_FALSE(cache.contains(in.pointKey)); // dropped from the index
}

TEST(ResultCache, MalformedIndexLinesAreDroppedOnOpen)
{
    const std::string dir = tmpDir("cache_badindex");
    const serve::CacheEntry in = makeEntry(7);
    {
        serve::ResultCache cache(dir);
        cache.store(in);
    }
    {
        std::ofstream f(dir + "/index.txt", std::ios::app);
        f << "not-a-key this line is garbage\n";
        f << fakeKey(42) << "\n"; // missing fields
    }
    serve::ResultCache reopened(dir);
    EXPECT_EQ(reopened.entries(), 1u);
    serve::CacheEntry out;
    EXPECT_TRUE(reopened.lookup(in.pointKey, out));
}

TEST(ResultCache, VerifyDropsCorruptAndAdoptsOrphans)
{
    const std::string dir = tmpDir("cache_verify");
    serve::ResultCache cache(dir);
    const serve::CacheEntry good = makeEntry(8);
    const serve::CacheEntry bad = makeEntry(9);
    const serve::CacheEntry orphan = makeEntry(10);
    cache.store(good);
    cache.store(bad);
    cache.store(orphan);

    // Corrupt one entry on disk...
    ASSERT_EQ(::truncate(objectPath(dir, bad.pointKey).c_str(), 10), 0);
    // ...and orphan another by erasing only its index line.
    {
        std::ifstream in(dir + "/index.txt");
        std::stringstream kept;
        std::string line;
        while (std::getline(in, line))
            if (line.find(orphan.pointKey) == std::string::npos)
                kept << line << "\n";
        std::ofstream out(dir + "/index.txt", std::ios::trunc);
        out << kept.str();
    }

    serve::ResultCache reopened(dir);
    EXPECT_EQ(reopened.entries(), 2u); // good + bad; orphan forgotten
    EXPECT_EQ(reopened.verify(), 1u);  // bad dropped
    EXPECT_EQ(reopened.entries(), 2u); // good + adopted orphan
    serve::CacheEntry out;
    EXPECT_TRUE(reopened.lookup(good.pointKey, out));
    EXPECT_TRUE(reopened.lookup(orphan.pointKey, out));
    EXPECT_EQ(out.statsDump, orphan.statsDump);
    EXPECT_FALSE(reopened.contains(bad.pointKey));
}

TEST(ResultCache, SweepAdapterRoundTrips)
{
    const std::string dir = tmpDir("cache_adapter");
    serve::ResultCache cache(dir);
    serve::ResultCacheSweepAdapter adapter(cache);

    const RunResult in = makeResult(11);
    const std::string key = fakeKey(11);
    RunResult out;
    EXPECT_FALSE(adapter.lookup(key, out));
    adapter.store(key, in, dumpRunResult(in));
    ASSERT_TRUE(adapter.lookup(key, out));
    test::expectSameResult(out, in);

    // The synthesized run record carries the point key.
    serve::CacheEntry entry;
    ASSERT_TRUE(cache.lookup(key, entry));
    EXPECT_NE(entry.runRecord.find(key), std::string::npos);
}

} // namespace
} // namespace tacsim
