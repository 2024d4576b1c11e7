/**
 * @file
 * Unit tests for address helpers, the RNG and the histogram.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "common/histogram.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace tacsim {
namespace {

// --- address geometry ---

TEST(Types, BlockHelpers)
{
    EXPECT_EQ(blockAlign(0x12345), 0x12340u);
    EXPECT_EQ(blockNumber(0x12345), 0x12345u >> 6);
    EXPECT_EQ(blockAlign(0x1000), 0x1000u);
    EXPECT_EQ(kBlockSize, 64u);
}

TEST(Types, PageHelpers)
{
    EXPECT_EQ(pageAlign(0x12345), 0x12000u);
    EXPECT_EQ(pageNumber(0x12345), 0x12u);
    EXPECT_EQ(kPageSize, 4096u);
}

TEST(Types, PtIndexExtractsNineBitChunks)
{
    // VA[20:12] is the level-1 index, VA[29:21] level-2, etc.
    const Addr va = (Addr{0x1ab} << 12) | (Addr{0x0cd} << 21) |
        (Addr{0x1ef} << 30) | (Addr{0x123} << 39) | (Addr{0x055} << 48);
    EXPECT_EQ(ptIndex(va, 1), 0x1abu);
    EXPECT_EQ(ptIndex(va, 2), 0x0cdu);
    EXPECT_EQ(ptIndex(va, 3), 0x1efu);
    EXPECT_EQ(ptIndex(va, 4), 0x123u);
    EXPECT_EQ(ptIndex(va, 5), 0x055u);
}

TEST(Types, PtIndexMasksToNineBits)
{
    for (unsigned level = 1; level <= kPtLevels; ++level)
        EXPECT_LT(ptIndex(~Addr{0}, level), kPtEntries);
}

// --- RNG ---

TEST(Rng, DeterministicPerSeed)
{
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        (void)c;
    }
    Rng d(43);
    bool anyDiff = false;
    Rng e(42);
    for (int i = 0; i < 100; ++i)
        anyDiff |= d.next() != e.next();
    EXPECT_TRUE(anyDiff);
}

TEST(Rng, RangeIsBounded)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 10ull, 1000ull, 1ull << 30}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.range(bound), bound);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += r.chance(0.25);
    EXPECT_NEAR(hits / 20000.0, 0.25, 0.02);
}

TEST(Rng, HashMixIsStableAndSpreads)
{
    EXPECT_EQ(hashMix(1), hashMix(1));
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i)
        seen.insert(hashMix(i));
    EXPECT_EQ(seen.size(), 1000u); // no collisions in a small range
}

TEST(Rng, ReseedResetsStream)
{
    Rng r(5);
    const auto first = r.next();
    r.next();
    r.reseed(5);
    EXPECT_EQ(r.next(), first);
}

// --- Histogram ---

TEST(Histogram, BucketsBySuppliedBounds)
{
    Histogram h({10, 50});
    h.add(0);
    h.add(10);  // <=10
    h.add(11);  // <=50
    h.add(50);
    h.add(51);  // overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.count(), 5u);
}

TEST(Histogram, MeanAndMax)
{
    Histogram h({100});
    h.add(10);
    h.add(20);
    h.add(60);
    EXPECT_DOUBLE_EQ(h.mean(), 30.0);
    EXPECT_EQ(h.max(), 60u);
}

TEST(Histogram, FractionAtOrBelow)
{
    Histogram h({10, 50, 100});
    for (int i = 0; i < 3; ++i)
        h.add(5);
    h.add(40);
    h.add(400);
    EXPECT_DOUBLE_EQ(h.fractionAtOrBelow(10), 0.6);
    EXPECT_DOUBLE_EQ(h.fractionAtOrBelow(50), 0.8);
    EXPECT_DOUBLE_EQ(h.fractionAtOrBelow(100), 0.8);
}

TEST(Histogram, FractionAtOrBelowRejectsNonBucketBound)
{
    // A non-bucket bound cannot be answered from bucket counts; the
    // silent alternative would be a partial sum that reads like a valid
    // fraction.
    Histogram h({10, 50, 100});
    h.add(5);
    EXPECT_THROW(h.fractionAtOrBelow(60), std::invalid_argument);
}

TEST(Histogram, Labels)
{
    Histogram h({10, 50});
    EXPECT_EQ(h.label(0), "0-10");
    EXPECT_EQ(h.label(1), "11-50");
    EXPECT_EQ(h.label(2), ">50");
}

TEST(Histogram, ResetClearsEverything)
{
    Histogram h({10});
    h.add(5);
    h.add(500);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.bucketCount(0), 0u);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
    EXPECT_DOUBLE_EQ(h.fractionAtOrBelow(10), 0.0);
}

} // namespace
} // namespace tacsim
