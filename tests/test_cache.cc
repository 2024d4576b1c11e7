/**
 * @file
 * Unit tests for the cache level: hit/miss paths, MSHR merging and
 * saturation, the MSHR file's slot reuse and teardown, fills and dirty
 * evictions, ideal-hit modes, prefetch handling and the ATP trigger.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "test_util.hh"

namespace tacsim {
namespace {

using test::MockMemory;
using test::makeLoad;
using test::makeTranslation;

struct CacheTest : ::testing::Test
{
    EventQueue eq;
    MockMemory lower{eq, 100};

    CacheParams
    smallParams()
    {
        CacheParams p;
        p.name = "L1";
        p.sets = 4;
        p.ways = 2;
        p.latency = 5;
        p.mshrs = 4;
        p.mshrReserveForDemand = 1;
        p.level = RespSource::L1D;
        return p;
    }

    std::unique_ptr<Cache>
    makeCache(CacheParams p)
    {
        return std::make_unique<Cache>(
            p, eq, &lower, makePolicy(PolicyKind::LRU, p.sets, p.ways));
    }
};

TEST_F(CacheTest, MissFillsThenHits)
{
    auto c = makeCache(smallParams());
    auto r1 = makeLoad(0x1000);
    Cycle done1 = 0;
    r1->onComplete = [&](MemRequest &r) { done1 = r.completedAt; };
    c->access(r1);
    test::drain(eq);
    EXPECT_EQ(r1->source, RespSource::DRAM);
    EXPECT_EQ(done1, 5u + 100u); // lookup latency + mock delay
    EXPECT_TRUE(c->contains(0x1000));

    auto r2 = makeLoad(0x1000);
    Cycle done2 = 0;
    const Cycle start = eq.now();
    r2->onComplete = [&](MemRequest &r) { done2 = r.completedAt; };
    c->access(r2);
    test::drain(eq);
    EXPECT_EQ(r2->source, RespSource::L1D);
    EXPECT_EQ(done2 - start, 5u);
    EXPECT_EQ(c->stats().hits[std::size_t(BlockCat::NonReplay)], 1u);
    EXPECT_EQ(c->stats().misses[std::size_t(BlockCat::NonReplay)], 1u);
}

TEST_F(CacheTest, MshrMergesSameBlock)
{
    auto c = makeCache(smallParams());
    // Three requests to one block, the middle one a store: one fill
    // completes each of them once, in arrival order.
    std::vector<int> order;
    const Addr addrs[] = {0x2000, 0x2010, 0x2030};
    for (int i = 0; i < 3; ++i) {
        auto r = makeLoad(addrs[i]);
        if (i == 1)
            r->type = ReqType::Store;
        r->onComplete = [&order, i](MemRequest &) { order.push_back(i); };
        c->access(r);
    }
    test::drain(eq);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(lower.requests.size(), 1u); // one fill for all three
    EXPECT_EQ(c->stats().mshrMerges, 2u);
    // The merged store dirties the filled line.
    const std::uint32_t set = c->setIndex(0x2000);
    bool dirty = false;
    for (std::uint32_t w = 0; w < c->params().ways; ++w) {
        const BlockMeta &b = c->blockAt(set, w);
        dirty |= b.valid && b.tag == blockAlign(Addr{0x2000}) && b.dirty;
    }
    EXPECT_TRUE(dirty);
}

TEST_F(CacheTest, MshrSaturationQueuesDemands)
{
    auto p = smallParams();
    p.mshrs = 2;
    auto c = makeCache(p);
    int completions = 0;
    for (int i = 0; i < 4; ++i) {
        auto r = makeLoad(Addr(0x10000) + Addr(i) * 0x1000);
        r->onComplete = [&](MemRequest &) { ++completions; };
        c->access(r);
    }
    test::drain(eq);
    EXPECT_EQ(completions, 4); // all eventually complete
    EXPECT_GT(c->stats().mshrFullEvents, 0u);
}

TEST_F(CacheTest, DirtyEvictionGeneratesWriteback)
{
    auto p = smallParams();
    p.sets = 1;
    p.ways = 1; // single frame: every new block evicts
    auto c = makeCache(p);

    auto st = makeLoad(0x3000);
    st->type = ReqType::Store;
    c->access(st);
    test::drain(eq);

    auto r = makeLoad(0x4000); // evicts the dirty block
    c->access(r);
    test::drain(eq);

    EXPECT_EQ(lower.countOf(ReqType::Writeback), 1u);
    EXPECT_EQ(c->stats().writebacksOut, 1u);
    EXPECT_FALSE(c->contains(0x3000));
    EXPECT_TRUE(c->contains(0x4000));
}

TEST_F(CacheTest, WritebackFromAboveHitsInPlace)
{
    auto p = smallParams();
    p.sets = 1;
    p.ways = 1; // single frame: every new block evicts
    auto c = makeCache(p);
    auto r = makeLoad(0x5000);
    c->access(r);
    test::drain(eq);

    auto wb = makeRequest();
    wb->paddr = 0x5000;
    wb->type = ReqType::Writeback;
    c->access(wb);
    test::drain(eq);
    EXPECT_EQ(lower.countOf(ReqType::Writeback), 0u); // absorbed here
    EXPECT_TRUE(c->contains(0x5000));

    // Evicting it now must push the dirty copy down, once.
    auto evict = makeLoad(0x6000);
    c->access(evict);
    test::drain(eq);
    std::vector<Addr> written;
    for (const auto &req : lower.requests)
        if (req->type == ReqType::Writeback)
            written.push_back(req->paddr);
    EXPECT_EQ(written, (std::vector<Addr>{0x5000}));
    EXPECT_EQ(c->stats().writebacksOut, 1u);
    EXPECT_FALSE(c->contains(0x5000));
}

TEST_F(CacheTest, WritebackMissForwardsWithoutAllocation)
{
    auto c = makeCache(smallParams());
    auto wb = makeRequest();
    wb->paddr = 0x6000;
    wb->type = ReqType::Writeback;
    c->access(wb);
    test::drain(eq);
    EXPECT_EQ(lower.countOf(ReqType::Writeback), 1u);
    EXPECT_FALSE(c->contains(0x6000));
}

TEST_F(CacheTest, IdealTranslationModeGrantsEarlyCompletion)
{
    auto p = smallParams();
    p.idealTranslations = true;
    p.level = RespSource::LLC;
    auto c = makeCache(p);

    auto t = makeTranslation(0x7000, 1, 0x8000);
    Cycle done = 0;
    t->onComplete = [&](MemRequest &r) { done = r.completedAt; };
    c->access(t);
    test::drain(eq);
    EXPECT_EQ(done, 5u); // hit latency, not DRAM
    EXPECT_EQ(t->source, RespSource::IdealLLC);
    EXPECT_EQ(c->stats().idealGrants, 1u);
    // The fill still happened in the background.
    EXPECT_TRUE(c->contains(0x7000));
    EXPECT_EQ(lower.countOf(ReqType::Translation), 1u);
}

TEST_F(CacheTest, IdealModeIgnoresNonLeafAndData)
{
    auto p = smallParams();
    p.idealTranslations = true;
    auto c = makeCache(p);
    auto t = makeTranslation(0x7000, 3); // upper level: not ideal
    Cycle done = 0;
    t->onComplete = [&](MemRequest &r) { done = r.completedAt; };
    c->access(t);
    test::drain(eq);
    EXPECT_GT(done, 100u);
}

TEST_F(CacheTest, AtpTriggersOnLeafTranslationHit)
{
    auto p = smallParams();
    p.atp = true;
    auto c = makeCache(p);

    // First walk: leaf PTE misses, fills.
    auto t1 = makeTranslation(0x9000, 1, 0xa000);
    c->access(t1);
    test::drain(eq);
    EXPECT_EQ(c->stats().atpIssued, 0u); // miss: no trigger

    // Second walk to the same PTE block: hit -> ATP prefetch of the
    // replay line.
    auto t2 = makeTranslation(0x9000, 1, 0xb000);
    c->access(t2);
    test::drain(eq);
    EXPECT_EQ(c->stats().atpIssued, 1u);
    EXPECT_TRUE(c->contains(0xb000));
    const auto &last = lower.requests.back();
    EXPECT_EQ(last->type, ReqType::Prefetch);
    EXPECT_EQ(last->prefetchOrigin, PrefetchOrigin::Atp);
}

TEST_F(CacheTest, AtpPrefetchUsefulWhenReplayHits)
{
    auto p = smallParams();
    p.atp = true;
    auto c = makeCache(p);
    auto t1 = makeTranslation(0x9000, 1, 0xa000);
    c->access(t1);
    test::drain(eq);
    auto t2 = makeTranslation(0x9000, 1, 0xb000);
    c->access(t2);
    test::drain(eq);

    auto replay = makeLoad(0xb000, 0x400000, true);
    c->access(replay);
    test::drain(eq);
    EXPECT_EQ(replay->source, RespSource::L1D);
    EXPECT_EQ(c->stats().atpUseful, 1u);
    EXPECT_EQ(c->stats().prefetchUseful, 1u);
}

TEST_F(CacheTest, PrefetchDuplicateFiltersApply)
{
    auto c = makeCache(smallParams());
    auto r = makeLoad(0xc000);
    c->access(r);
    test::drain(eq);

    c->issuePrefetch(0xc000, PrefetchOrigin::DataPrefetcher, 0);
    EXPECT_EQ(c->stats().prefetchIssued, 0u); // resident: filtered

    c->issuePrefetch(0xd000, PrefetchOrigin::DataPrefetcher, 0);
    c->issuePrefetch(0xd000, PrefetchOrigin::DataPrefetcher, 0);
    EXPECT_EQ(c->stats().prefetchIssued, 1u); // in-flight: filtered
    test::drain(eq);
    EXPECT_TRUE(c->contains(0xd000));
}

TEST_F(CacheTest, PrefetchesCannotTakeReservedMshrs)
{
    auto p = smallParams();
    p.mshrs = 2;
    p.mshrReserveForDemand = 1;
    auto c = makeCache(p);

    auto r = makeLoad(0xe000);
    c->access(r);
    test::drain(eq); // occupy nothing now; fill done

    // One demand miss holds an MSHR; the only free one is reserved.
    auto r2 = makeLoad(0xf000);
    c->access(r2);
    eq.advanceTo(eq.now() + 6); // past lookup, fill pending
    c->issuePrefetch(0x1f000, PrefetchOrigin::DataPrefetcher, 0);
    EXPECT_EQ(c->stats().prefetchDropped, 1u);
    test::drain(eq);
}

TEST_F(CacheTest, LateMergedDemandReclassifiesFill)
{
    auto c = makeCache(smallParams());
    c->issuePrefetch(0x11000, PrefetchOrigin::DataPrefetcher, 0);
    eq.advanceTo(eq.now() + 1);
    auto replay = makeLoad(0x11000, 0x400000, true);
    c->access(replay);
    test::drain(eq);
    EXPECT_EQ(c->stats().prefetchLate, 1u);
    // The installed block carries the demand's (replay) category.
    const std::uint32_t set = c->setIndex(0x11000);
    bool found = false;
    for (std::uint32_t w = 0; w < c->params().ways; ++w) {
        const BlockMeta &b = c->blockAt(set, w);
        if (b.valid && b.tag == blockAlign(Addr{0x11000})) {
            EXPECT_EQ(b.cat, BlockCat::Replay);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(CacheTest, DrainedDemandDoesNotRefetchResidentLine)
{
    auto p = smallParams();
    p.mshrs = 1; // a single in-flight miss saturates the MSHRs
    auto c = makeCache(p);

    // Y occupies the only MSHR; its fill is in flight in the mock.
    auto y = makeLoad(0x20000);
    c->access(y);
    eq.advanceTo(eq.now() + 6); // past lookup; Y waits on the mock

    // Two demands to the same block X queue in pending_ while the MSHRs
    // are full (X1 gets no MSHR, so X2 cannot merge with it).
    auto x1 = makeLoad(0x30000);
    auto x2 = makeLoad(0x30010); // same 64B block as X1
    int completions = 0;
    x1->onComplete = [&](MemRequest &) { ++completions; };
    x2->onComplete = [&](MemRequest &) { ++completions; };
    c->access(x1);
    c->access(x2);
    test::drain(eq);

    // Y's fill drains X1 (fetches X); X's fill drains X2, which must
    // see the just-installed line and complete as a hit — not re-fetch
    // and re-install it.
    EXPECT_EQ(completions, 2);
    EXPECT_EQ(x2->source, RespSource::L1D);
    std::size_t fetchesOfX = 0;
    for (const auto &r : lower.requests)
        fetchesOfX += r->blockAddr() == blockAlign(Addr{0x30000});
    EXPECT_EQ(fetchesOfX, 1u);
    EXPECT_EQ(c->stats().fills, 2u); // Y and X, once each
    // The queued demands were counted once at first lookup, not again
    // on drain.
    const auto cat = std::size_t(BlockCat::NonReplay);
    EXPECT_EQ(c->stats().accesses[cat], 3u);
    EXPECT_EQ(c->stats().misses[cat], 3u);
    EXPECT_GT(c->stats().mshrFullEvents, 0u);
}

namespace {

/** Prefetcher spy: counts onPrefetchFill notifications. */
struct SpyPrefetcher : Prefetcher
{
    void onAccess(const AccessInfo &, bool) override {}
    void onPrefetchFill(Addr) override { ++fills; }
    std::string name() const override { return "spy"; }
    int fills = 0;
};

} // namespace

TEST_F(CacheTest, DemandMergeIntoPrefetchMshrStopsPrefetcherTraining)
{
    auto p = smallParams();
    auto spy = std::make_unique<SpyPrefetcher>();
    SpyPrefetcher *spyPtr = spy.get();
    auto c = std::make_unique<Cache>(
        p, eq, &lower, makePolicy(PolicyKind::LRU, p.sets, p.ways),
        std::move(spy));

    // Control: an unmerged prefetch fill trains the prefetcher.
    c->issuePrefetch(0x40000, PrefetchOrigin::DataPrefetcher, 0);
    test::drain(eq);
    EXPECT_EQ(spyPtr->fills, 1);

    // A demand merging into an in-flight prefetch reclassifies the fill
    // as a demand fill: the prefetcher must not train on it.
    c->issuePrefetch(0x50000, PrefetchOrigin::DataPrefetcher, 0);
    eq.advanceTo(eq.now() + 1);
    auto d = makeLoad(0x50000);
    c->access(d);
    test::drain(eq);
    EXPECT_EQ(c->stats().prefetchLate, 1u);
    EXPECT_EQ(spyPtr->fills, 1); // unchanged
}

namespace {

/** Issues one follow-on prefetch, into its own cache, from the first
 *  prefetch fill it is told about. */
struct FollowOnPrefetcher : Prefetcher
{
    void onAccess(const AccessInfo &, bool) override {}
    void
    onPrefetchFill(Addr blockAddr) override
    {
        if (fills++ == 0)
            issuePhysical(blockAddr + 0x1000, 0);
    }
    std::string name() const override { return "follow-on"; }
    int fills = 0;
};

} // namespace

TEST_F(CacheTest, FillFollowOnClaimsTheFreedSlot)
{
    auto p = smallParams();
    p.mshrs = 1;
    p.mshrReserveForDemand = 0;
    auto c = std::make_unique<Cache>(
        p, eq, &lower, makePolicy(PolicyKind::LRU, p.sets, p.ways),
        std::make_unique<FollowOnPrefetcher>());

    // Two data-prefetcher requests to one block share the only MSHR.
    // Their fill trains the prefetcher, whose follow-on prefetch needs
    // that same MSHR while the fill is still completing its waiters.
    std::vector<int> order;
    for (int i = 0; i < 2; ++i) {
        auto r = makeLoad(Addr(0x60000) + Addr(i) * 0x10);
        r->type = ReqType::Prefetch;
        r->prefetchOrigin = PrefetchOrigin::DataPrefetcher;
        r->onComplete = [&order, i](MemRequest &) { order.push_back(i); };
        c->access(r);
    }
    eq.advanceTo(5 + 100); // lookup latency + mock delay: the fill
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    // The follow-on found the slot free, took it, and is in flight.
    EXPECT_EQ(c->stats().prefetchIssued, 1u);
    EXPECT_EQ(c->stats().prefetchDropped, 0u);
    EXPECT_EQ(lower.requests.size(), 2u);
    EXPECT_NO_THROW(c->checkInvariants());

    test::drain(eq);
    EXPECT_EQ(order.size(), 2u);
    EXPECT_TRUE(c->contains(0x60000));
    EXPECT_TRUE(c->contains(0x61000));
    EXPECT_NO_THROW(c->checkInvariants());
}

TEST_F(CacheTest, TeardownMidMissReleasesWaiters)
{
    auto c = makeCache(smallParams());
    std::weak_ptr<int> first;
    std::weak_ptr<int> second;
    {
        auto token1 = std::make_shared<int>(1);
        auto token2 = std::make_shared<int>(2);
        first = token1;
        second = token2;
        auto r1 = makeLoad(0x70000);
        auto r2 = makeLoad(0x70010); // merges behind r1
        r1->onComplete = [token1](MemRequest &) {};
        r2->onComplete = [token2](MemRequest &) {};
        c->access(r1);
        c->access(r2);
    }
    eq.advanceTo(eq.now() + 6); // both wait on one MSHR; fill in flight
    EXPECT_EQ(c->stats().mshrMerges, 1u);
    EXPECT_FALSE(first.expired());
    EXPECT_FALSE(second.expired());

    // The cache goes away with the miss outstanding (the mock's fill
    // event is never run): the waiter list must release both requests.
    c.reset();
    EXPECT_TRUE(first.expired());
    EXPECT_TRUE(second.expired());
}

TEST_F(CacheTest, StatsAccountingConsistent)
{
    auto c = makeCache(smallParams());
    for (int i = 0; i < 32; ++i) {
        auto r = makeLoad(Addr(i % 8) * 0x1000);
        c->access(r);
        test::drain(eq);
    }
    const CacheStats &s = c->stats();
    const auto cat = std::size_t(BlockCat::NonReplay);
    EXPECT_EQ(s.accesses[cat], s.hits[cat] + s.misses[cat]);
    EXPECT_EQ(s.accesses[cat], 32u);
}

} // namespace
} // namespace tacsim
