/**
 * @file
 * Tests for the hierarchy invariant verifier: a clean system must pass
 * every check, and each deliberately seeded corruption (duplicate tag,
 * out-of-range RRPV, stale eviction metadata, MSHR for a resident line,
 * cyclic MSHR waiter list, TLB entry disagreeing with the page table)
 * must trip exactly the invariant it targets, identified by its stable
 * tag and component. The walker's walk-file corruptions go through
 * PtwTestAccess, which PageTableWalker befriends.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cache/repl/rrip.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "sim/verify.hh"
#include "vm/ptw.hh"
#include "vm/tlb.hh"
#include "test_util.hh"

namespace tacsim {

/** Reaches into a walker's walk file to seed corruptions. */
struct PtwTestAccess
{
    static constexpr std::uint32_t kNone = PageTableWalker::kNone;

    /** The request of the walk for @p vaddr (ASID 0), in flight or
     *  queued. */
    static PageTableWalker::WalkRequest &
    requestOf(PageTableWalker &w, Addr vaddr)
    {
        const std::uint64_t ref = *w.walkIndex_.find(w.keyOf(0, vaddr));
        return ref & PageTableWalker::kQueued
            ? w.queued(ref & ~PageTableWalker::kQueued)
            : w.slots_[ref].req;
    }

    static std::uint32_t &
    nextCallback(PageTableWalker &w, std::uint32_t node)
    {
        return w.callbacks_[node].next;
    }

    static std::vector<std::uint32_t> &
    freeSlots(PageTableWalker &w)
    {
        return w.freeSlots_;
    }

    static void
    unindex(PageTableWalker &w, Addr vaddr)
    {
        w.walkIndex_.erase(w.keyOf(0, vaddr));
    }
};

namespace {

using test::MockMemory;
using test::makeLoad;
using verify::Checker;
using verify::InvariantViolation;

/**
 * Run @p fn and return the InvariantViolation it throws. Fails the test
 * if nothing (or anything else) is thrown.
 */
template <typename Fn>
InvariantViolation
expectViolation(Fn &&fn)
{
    try {
        fn();
    } catch (const InvariantViolation &v) {
        return v;
    } catch (const std::exception &e) {
        ADD_FAILURE() << "wrong exception type: " << e.what();
        return InvariantViolation("", "", "");
    }
    ADD_FAILURE() << "expected InvariantViolation, nothing thrown";
    return InvariantViolation("", "", "");
}

struct VerifyCacheTest : ::testing::Test
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

    /** Fill one line and drain so the cache is quiescent. */
    void
    fillLine(Cache &c, Addr paddr)
    {
        c.access(makeLoad(paddr));
        test::drain(eq);
        ASSERT_TRUE(c.contains(paddr));
    }
};

TEST_F(VerifyCacheTest, CleanCachePassesAfterTraffic)
{
    auto c = makeCache(smallParams());
    for (Addr a : {0x1000, 0x2000, 0x2040, 0x9000, 0x1000})
        c->access(makeLoad(a));
    test::drain(eq);
    EXPECT_NO_THROW(c->checkInvariants());
}

TEST_F(VerifyCacheTest, DuplicateTagTrips)
{
    auto c = makeCache(smallParams());
    fillLine(*c, 0x1000);

    const std::uint32_t set = c->setIndex(0x1000);
    // Clone the resident block into the other way of its set.
    c->blockAt(set, 1) = c->blockAt(set, 0);

    auto v = expectViolation([&] { c->checkInvariants(); });
    EXPECT_EQ(v.invariant(), "duplicate-tag");
    EXPECT_EQ(v.component(), "L1");
    EXPECT_EQ(v.set(), static_cast<std::int64_t>(set));
}

TEST_F(VerifyCacheTest, StaleReplayFlagOnInvalidBlockTrips)
{
    auto c = makeCache(smallParams());
    fillLine(*c, 0x1000);

    // Model a buggy eviction that forgot to clear the traffic class:
    // the way is invalid but still tagged as holding a replay block.
    BlockMeta &b = c->blockAt(c->setIndex(0x1000), 0);
    b.valid = false;
    b.cat = BlockCat::Replay;

    auto v = expectViolation([&] { c->checkInvariants(); });
    EXPECT_EQ(v.invariant(), "stale-meta");
    EXPECT_EQ(v.component(), "L1");
}

TEST_F(VerifyCacheTest, StalePrefetchOriginTrips)
{
    auto c = makeCache(smallParams());
    fillLine(*c, 0x2000);

    BlockMeta &b = c->blockAt(c->setIndex(0x2000), 0);
    b.valid = false;
    b.prefetchOrigin = PrefetchOrigin::Atp;

    auto v = expectViolation([&] { c->checkInvariants(); });
    EXPECT_EQ(v.invariant(), "stale-meta");
}

TEST_F(VerifyCacheTest, EvictionClearsMetadata)
{
    // Regression guard for the invariant itself: filling both ways of a
    // set and forcing an eviction must leave no stale metadata behind.
    auto c = makeCache(smallParams());
    const std::uint32_t set = c->setIndex(0x1000);
    for (Addr a : {0x1000, 0x1100, 0x1200}) {
        ASSERT_EQ(c->setIndex(a), set);
        c->access(makeLoad(a));
        test::drain(eq);
    }
    EXPECT_NO_THROW(c->checkInvariants());
}

TEST_F(VerifyCacheTest, MshrForResidentLineTrips)
{
    auto c = makeCache(smallParams());
    c->access(makeLoad(0x3000));
    // Past the lookup latency (MSHR allocated) but well before the mock
    // memory answers at +100.
    eq.advanceTo(20);

    // Magically install the line the MSHR is still fetching.
    BlockMeta &b = c->blockAt(c->setIndex(0x3000), 0);
    b.valid = true;
    b.tag = blockAlign(0x3000);

    auto v = expectViolation([&] { c->checkInvariants(); });
    EXPECT_EQ(v.invariant(), "mshr-resident");
    EXPECT_EQ(v.component(), "L1");
}

TEST_F(VerifyCacheTest, CyclicWaiterListTrips)
{
    auto c = makeCache(smallParams());
    auto r1 = makeLoad(0x3000);
    auto r2 = makeLoad(0x3010); // merges behind r1
    c->access(r1);
    c->access(r2);
    eq.advanceTo(20);
    ASSERT_NO_THROW(c->checkInvariants());

    // Close the waiter list into a ring: the checker must stop at the
    // first repeat instead of walking it forever.
    r2->nextWaiter = r1;
    auto v = expectViolation([&] { c->checkInvariants(); });
    EXPECT_EQ(v.invariant(), "mshr-duplicate-waiter");
    EXPECT_EQ(v.component(), "L1");

    r2->nextWaiter = nullptr; // break the ownership cycle again
    test::drain(eq);
    EXPECT_NO_THROW(c->checkInvariants());
}

TEST_F(VerifyCacheTest, StatsDesyncTrips)
{
    auto c = makeCache(smallParams());
    fillLine(*c, 0x1000);

    // A hit that was never accounted as an access.
    c->access(makeLoad(0x1000));
    test::drain(eq);
    const_cast<CacheStats &>(c->stats())
        .accesses[static_cast<std::size_t>(BlockCat::NonReplay)] -= 1;

    auto v = expectViolation([&] { c->checkInvariants(); });
    EXPECT_EQ(v.invariant(), "stats-accounting");
}

/** SRRIP with the protected RRPV write exposed as a corruption seam. */
struct PokeableSrrip : SrripPolicy
{
    using SrripPolicy::SrripPolicy;

    void
    poke(std::uint32_t set, std::uint32_t way, std::uint8_t v)
    {
        setRrpv(set, way, v);
    }
};

TEST_F(VerifyCacheTest, RrpvOutOfRangeTrips)
{
    CacheParams p = smallParams();
    auto pol = std::make_unique<PokeableSrrip>(p.sets, p.ways, ReplOpts{});
    PokeableSrrip *srrip = pol.get();
    Cache c(p, eq, &lower, std::move(pol));
    EXPECT_NO_THROW(c.checkInvariants());

    srrip->poke(2, 1, 0x7f);

    auto v = expectViolation([&] { c.checkInvariants(); });
    EXPECT_EQ(v.invariant(), "rrpv-range");
    EXPECT_EQ(v.component(), "L1/SRRIP");
    EXPECT_EQ(v.set(), 2);
    EXPECT_EQ(v.way(), 1);
}

TEST(VerifyTlbTest, DuplicateKeyTrips)
{
    Tlb t("STLB", 64, 4, 1);
    t.fill(0, Addr{5} << kPageBits, 0xaa000);
    EXPECT_NO_THROW(t.checkInvariants());

    // Same (asid, vpn) in two ways of set 5.
    t.pokeForTest(5, 2, 0, 5, 0xbb000);

    try {
        t.checkInvariants();
        FAIL() << "duplicate key not detected";
    } catch (const InvariantViolation &v) {
        EXPECT_EQ(v.invariant(), "duplicate-key");
        EXPECT_EQ(v.component(), "STLB");
        EXPECT_EQ(v.set(), 5);
    }
}

TEST(VerifyTlbTest, WrongSetTrips)
{
    Tlb t("DTLB", 64, 4, 1);
    // vpn 5 belongs in set 5 (16 sets), not set 3.
    t.pokeForTest(3, 0, 0, 5, 0xaa000);

    try {
        t.checkInvariants();
        FAIL() << "set mismatch not detected";
    } catch (const InvariantViolation &v) {
        EXPECT_EQ(v.invariant(), "set-mismatch");
        EXPECT_EQ(v.component(), "DTLB");
    }
}

TEST(VerifyTlbTest, UnalignedPfnTrips)
{
    Tlb t("DTLB", 64, 4, 1);
    t.pokeForTest(5, 0, 0, 5, 0xaa040); // not page-aligned

    try {
        t.checkInvariants();
        FAIL() << "unaligned PFN not detected";
    } catch (const InvariantViolation &v) {
        EXPECT_EQ(v.invariant(), "pfn-align");
    }
}

/** A walker with one slot: the walk to kInFlight holds it and the walk
 *  to kWaiting is queued; each has two callbacks (one merged). */
struct VerifyWalkerTest : ::testing::Test
{
    static constexpr Addr kInFlight = 0x1000;
    static constexpr Addr kWaiting = 0x2000;

    static PtwParams
    oneSlot()
    {
        PtwParams p;
        p.maxConcurrentWalks = 1;
        return p;
    }

    EventQueue eq;
    MockMemory mem{eq, 50};
    FrameAllocator frames;
    PageTable pt{frames};
    PageTableWalker w{eq, &mem, oneSlot()};
    int done = 0;

    void
    SetUp() override
    {
        w.addAddressSpace(0, &pt);
        for (const Addr v : {kInFlight, kWaiting, kInFlight + 8, kWaiting + 8})
            w.walk(0, v, 0, 0, [this](Addr, PageSize, RespSource) {
                ++done;
            });
        ASSERT_EQ(w.activeWalks(), 1u);
        ASSERT_EQ(w.stats().queued, 1u);
        ASSERT_EQ(w.stats().merged, 2u);
    }

    auto &
    request(Addr vaddr)
    {
        return PtwTestAccess::requestOf(w, vaddr);
    }

    void
    expectTrips(const char *tag)
    {
        auto v = expectViolation([&] { w.checkInvariants(); });
        EXPECT_EQ(v.invariant(), tag) << v.what();
        EXPECT_EQ(v.component(), "PTW");
    }
};

TEST_F(VerifyWalkerTest, CleanWalkFilePasses)
{
    EXPECT_NO_THROW(w.checkInvariants());
    eq.advanceTo(100); // mid-walk: the first reads are in flight
    EXPECT_NO_THROW(w.checkInvariants());
    test::drain(eq);
    EXPECT_EQ(done, 4);
    EXPECT_NO_THROW(w.checkInvariants());
}

TEST_F(VerifyWalkerTest, SlotIndexedAndFreeTrips)
{
    PtwTestAccess::freeSlots(w).push_back(0); // the in-flight walk's slot
    expectTrips("walk-slot");
}

TEST_F(VerifyWalkerTest, UnindexedQueuedWalkTrips)
{
    PtwTestAccess::unindex(w, kWaiting);
    expectTrips("walk-queue");
}

TEST_F(VerifyWalkerTest, WalkWithoutCallbacksTrips)
{
    auto &r = request(kInFlight);
    r.firstCallback = r.lastCallback = PtwTestAccess::kNone;
    expectTrips("walk-callbacks");
}

TEST_F(VerifyWalkerTest, CyclicCallbackListTrips)
{
    // Close the queued walk's two-node list into a ring: the checker
    // must stop at the first repeat instead of walking it forever.
    auto &r = request(kWaiting);
    PtwTestAccess::nextCallback(w, r.lastCallback) = r.firstCallback;
    expectTrips("walk-callback-cycle");
}

TEST_F(VerifyWalkerTest, StaleCallbackTailTrips)
{
    auto &r = request(kInFlight);
    r.lastCallback = r.firstCallback; // the list goes on past its tail
    expectTrips("walk-callback-tail");
}

TEST_F(VerifyWalkerTest, LostCallbackTrips)
{
    // Cut the in-flight walk's list after its first node: a consistent
    // one-node list, and a pooled callback that no walk will ever run.
    auto &r = request(kInFlight);
    PtwTestAccess::nextCallback(w, r.firstCallback) = PtwTestAccess::kNone;
    r.lastCallback = r.firstCallback;
    expectTrips("walk-callback-leak");
}

TEST(VerifyViolationTest, MessageCarriesContext)
{
    InvariantViolation v("LLC", "duplicate-tag", "tag=0x1000", 7, 3);
    const std::string msg = v.what();
    EXPECT_NE(msg.find("LLC"), std::string::npos);
    EXPECT_NE(msg.find("duplicate-tag"), std::string::npos);
    EXPECT_NE(msg.find("tag=0x1000"), std::string::npos);
    EXPECT_EQ(v.set(), 7);
    EXPECT_EQ(v.way(), 3);
}

TEST(VerifyCheckMacroTest, CheckAbortsOnFailure)
{
    EXPECT_DEATH_IF_SUPPORTED(TACSIM_CHECK(1 + 1 == 3),
                              "check failed: 1 \\+ 1 == 3");
    // And the passing form is a no-op.
    TACSIM_CHECK(1 + 1 == 2);
}

/** Full-System fixture: a short mcf run leaves every structure warm. */
struct VerifySystemTest : ::testing::Test
{
    SystemConfig cfg;
    std::unique_ptr<System> sys;
    std::unique_ptr<Checker> checker;

    void
    SetUp() override
    {
        std::vector<std::unique_ptr<Workload>> w;
        w.push_back(makeWorkload(Benchmark::mcf, cfg.seed));
        sys = std::make_unique<System>(cfg, std::move(w));
        checker = std::make_unique<Checker>(*sys, 2000);
        sys->attachChecker(checker.get());
        sys->run(20000);
    }
};

TEST_F(VerifySystemTest, CleanHierarchyPasses)
{
    EXPECT_NO_THROW(checker->checkAll());
#ifdef TACSIM_VERIFY_ENABLED
    // In verify builds the run loop itself drove periodic checks plus
    // the drain-point check.
    EXPECT_GT(checker->checksRun(), 1u);
#endif
}

TEST_F(VerifySystemTest, LlcDuplicateTagTrips)
{
    Cache &llc = sys->llc();
    const std::uint32_t sets = llc.params().sets;
    const std::uint32_t ways = llc.params().ways;

    // Find a set holding a valid block next to an invalid way.
    for (std::uint32_t s = 0; s < sets; ++s) {
        std::int64_t validWay = -1, freeWay = -1;
        for (std::uint32_t w = 0; w < ways; ++w) {
            if (llc.blockAt(s, w).valid)
                validWay = w;
            else
                freeWay = w;
        }
        if (validWay < 0 || freeWay < 0)
            continue;

        llc.blockAt(s, static_cast<std::uint32_t>(freeWay)) =
            llc.blockAt(s, static_cast<std::uint32_t>(validWay));

        auto v = expectViolation([&] { checker->checkAll(); });
        EXPECT_EQ(v.invariant(), "duplicate-tag");
        EXPECT_EQ(v.component(), "LLC");
        EXPECT_EQ(v.set(), static_cast<std::int64_t>(s));
        return;
    }
    FAIL() << "no LLC set with both a valid block and a free way";
}

TEST_F(VerifySystemTest, TlbPageTableMismatchTrips)
{
    Tlb &stlb = sys->stlb();
    // vpn == set index for the STLB's power-of-two set count, so placing
    // vpn 3 in set 3 passes the structural checks; only the cross-check
    // against the page table can catch the bogus PFN.
    const Addr vpn = 3;
    stlb.pokeForTest(static_cast<std::uint32_t>(vpn % stlb.sets()), 0, 0,
                     vpn, 0x7ffffffff000ull);

    auto v = expectViolation([&] { checker->checkAll(); });
    EXPECT_EQ(v.invariant(), "tlb-pagetable");
    EXPECT_EQ(v.component(), "STLB");
}

TEST(VerifyWalkerNames, EachPscReportsItsWalkerAndDimension)
{
    // Two cores with nested translation hold four PSC sets of the same
    // levels; a violation must say which one tripped.
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.vm.nested = true;
    std::vector<std::unique_ptr<Workload>> w;
    w.push_back(makeWorkload(Benchmark::mcf, cfg.seed));
    w.push_back(makeWorkload(Benchmark::xalancbmk, cfg.seed));
    System sys(cfg, std::move(w));
    Checker checker(sys, 2000);
    EXPECT_NO_THROW(checker.checkAll());

    // A PSCL2 entry from a walk whose leaf was level 2 (no level-1
    // table exists for it), first in core 0's guest PSCs ...
    sys.ptw(0).pscs().pokeForTest(2, 0, 0, 0x40000000, 0x111000, 2);
    auto v = expectViolation([&] { checker.checkAll(); });
    EXPECT_EQ(v.invariant(), "psc-skipped-level");
    EXPECT_EQ(v.component(), "PTW.0/PSCL2");

    // ... then in core 1's host PSCs.
    sys.ptw(0).pscs().flush();
    sys.ptw(1).hostPscs()->pokeForTest(2, 0, 0, 0x40000000, 0x111000, 2);
    v = expectViolation([&] { checker.checkAll(); });
    EXPECT_EQ(v.invariant(), "psc-skipped-level");
    EXPECT_EQ(v.component(), "PTW.1/host-PSCL2");
}

TEST_F(VerifySystemTest, PeriodicPacingHonorsInterval)
{
    Checker paced(*sys, 5000);
    paced.maybeCheck(4999);
    EXPECT_EQ(paced.checksRun(), 0u); // not yet due
    paced.maybeCheck(5000);
    EXPECT_EQ(paced.checksRun(), 1u);
    paced.maybeCheck(5001);
    EXPECT_EQ(paced.checksRun(), 1u); // interval restarts

    Checker off(*sys, 0); // 0 = drain points / explicit only
    off.maybeCheck(1u << 30);
    EXPECT_EQ(off.checksRun(), 0u);
}

} // namespace
} // namespace tacsim
