/**
 * @file
 * Unit tests for the DRAM model: row-buffer timing, bank conflicts, bus
 * occupancy, posted writes and the TEMPO hook.
 */

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "test_util.hh"

namespace tacsim {
namespace {

using test::makeLoad;
using test::makeTranslation;

struct DramTest : ::testing::Test
{
    EventQueue eq;
    DramParams params;

    Cycle
    readLatency(Dram &dram, Addr addr)
    {
        Cycle done = 0;
        auto req = makeLoad(addr);
        const Cycle start = eq.now();
        req->onComplete = [&](MemRequest &r) { done = r.completedAt; };
        dram.access(req);
        test::drain(eq);
        return done - start;
    }
};

TEST_F(DramTest, RowHitIsFasterThanRowMiss)
{
    Dram dram("d", eq, params);
    const Cycle first = readLatency(dram, 0x10000); // opens the row
    const Cycle second = readLatency(dram, 0x10040); // same row
    EXPECT_GT(first, second);
    EXPECT_EQ(dram.stats().rowHits, 1u);
    EXPECT_EQ(dram.stats().rowMisses, 1u);
}

TEST_F(DramTest, RowConflictIsSlowest)
{
    Dram dram("d", eq, params);
    const Cycle miss = readLatency(dram, 0x10000);
    // Same bank, different row: rowBytes apart maps to the same bank
    // only if the hash agrees, so force it by scanning for a conflict.
    Addr conflict = 0;
    for (Addr cand = 0x10000 + params.rowBytes;; cand += params.rowBytes) {
        // Same bank index as 0x10000?
        Dram probe("p", eq, params);
        (void)probe;
        // The bank mapping is internal; detect a conflict via stats.
        const auto before = dram.stats().rowConflicts;
        const Cycle lat = readLatency(dram, cand);
        if (dram.stats().rowConflicts > before) {
            conflict = cand;
            EXPECT_GE(lat, miss);
            break;
        }
        ASSERT_LT(cand, Addr{0x10000} + params.rowBytes * 512)
            << "no bank conflict found";
    }
    EXPECT_NE(conflict, 0u);
}

TEST_F(DramTest, WritebacksAreCountedAndPosted)
{
    Dram dram("d", eq, params);
    auto wb = makeRequest();
    wb->paddr = 0x4000;
    wb->type = ReqType::Writeback;
    bool completed = false;
    wb->onComplete = [&](MemRequest &) { completed = true; };
    dram.access(wb);
    EXPECT_TRUE(completed); // posted: completes immediately
    EXPECT_EQ(dram.stats().writes, 1u);
    EXPECT_EQ(dram.stats().reads, 0u);
}

TEST_F(DramTest, BusOccupancyAccumulates)
{
    Dram dram("d", eq, params);
    readLatency(dram, 0x0);
    readLatency(dram, 0x100000);
    EXPECT_EQ(dram.stats().busyCycles, 2 * params.tBurst);
}

TEST_F(DramTest, BackToBackSameBankSerializes)
{
    Dram dram("d", eq, params);
    // Two loads to the same row issued at the same time: the second's
    // data transfer must wait for the shared bus.
    Cycle done1 = 0, done2 = 0;
    auto r1 = makeLoad(0x20000);
    auto r2 = makeLoad(0x20040);
    r1->onComplete = [&](MemRequest &r) { done1 = r.completedAt; };
    r2->onComplete = [&](MemRequest &r) { done2 = r.completedAt; };
    dram.access(r1);
    dram.access(r2);
    test::drain(eq);
    EXPECT_GE(done2, done1 + params.tBurst);
}

TEST_F(DramTest, TranslationReadsCounted)
{
    Dram dram("d", eq, params);
    auto t = makeTranslation(0x8000, 1, 0x9000);
    dram.access(t);
    test::drain(eq);
    EXPECT_EQ(dram.stats().translationReads, 1u);
}

TEST_F(DramTest, TempoFiresOnLeafTranslationOnly)
{
    params.tempo = true;
    Dram dram("d", eq, params);
    std::vector<Addr> prefetched;
    dram.setTempoHook(
        [&](Addr block, Addr) { prefetched.push_back(block); });

    dram.access(makeTranslation(0x8000, 2, 0x9040)); // non-leaf
    dram.access(makeTranslation(0x8100, 1, 0));      // leaf, no target
    dram.access(makeTranslation(0x8200, 1, 0x9040)); // leaf with target
    test::drain(eq);

    ASSERT_EQ(prefetched.size(), 1u);
    EXPECT_EQ(prefetched[0], 0x9040u);
    EXPECT_EQ(dram.stats().tempoPrefetches, 1u);
}

TEST_F(DramTest, TempoDisabledDoesNotFire)
{
    params.tempo = false;
    Dram dram("d", eq, params);
    bool fired = false;
    dram.setTempoHook([&](Addr, Addr) { fired = true; });
    dram.access(makeTranslation(0x8200, 1, 0x9040));
    test::drain(eq);
    EXPECT_FALSE(fired);
}

TEST_F(DramTest, ChannelInterleavingSpreadsBlocks)
{
    params.channels = 2;
    Dram dram("d", eq, params);
    // Adjacent blocks alternate channels; their transfers can overlap,
    // so four loads across two channels finish faster than four on one.
    Cycle lastTwoChannel = 0;
    for (int i = 0; i < 4; ++i) {
        auto r = makeLoad(Addr(i) * kBlockSize);
        r->onComplete = [&](MemRequest &rr) {
            lastTwoChannel = std::max(lastTwoChannel, rr.completedAt);
        };
        dram.access(r);
    }
    test::drain(eq);

    EventQueue eq1;
    DramParams p1 = params;
    p1.channels = 1;
    Dram one("one", eq1, p1);
    Cycle lastOneChannel = 0;
    for (int i = 0; i < 4; ++i) {
        auto r = makeLoad(Addr(i) * kBlockSize);
        r->onComplete = [&](MemRequest &rr) {
            lastOneChannel = std::max(lastOneChannel, rr.completedAt);
        };
        one.access(r);
    }
    test::drain(eq1);
    EXPECT_LE(lastTwoChannel, lastOneChannel);
}

} // namespace
} // namespace tacsim
