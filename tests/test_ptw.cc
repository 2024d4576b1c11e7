/**
 * @file
 * Unit tests for the page-table walker: serial level reads, PSC skips,
 * merging into in-flight and queued walks, concurrency limits, STLB
 * fills, the ATP plumbing (IsLeafLevel + replay block address), and
 * that steady-state walking allocates nothing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "test_util.hh"
#include "vm/ptw.hh"

namespace {
/** operator new calls made by this thread (replacement below). */
thread_local std::uint64_t tNewCalls = 0;
} // namespace

// Counting replacements for this test binary: the steady-state test
// below reads tNewCalls around a run of walks. Array, nothrow and sized
// forms reach these through the library's defaults.
void *
operator new(std::size_t n)
{
    ++tNewCalls;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// GCC cannot tell that these pair with the operator new above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
#pragma GCC diagnostic pop

namespace tacsim {
namespace {

struct PtwTest : ::testing::Test
{
    EventQueue eq;
    test::MockMemory mem{eq, 50};
    FrameAllocator fa;
    PageTable pt{fa};

    PageTableWalker
    makeWalker(PtwParams p = {})
    {
        PageTableWalker w(eq, &mem, p);
        w.addAddressSpace(0, &pt);
        return w;
    }
};

TEST_F(PtwTest, ColdWalkReadsAllFiveLevels)
{
    auto w = makeWalker();
    Addr result = 0;
    w.walk(0, 0x12345000, 0x400000, 0,
           [&](Addr paddr, PageSize, RespSource) { result = paddr; });
    test::drain(eq);
    EXPECT_EQ(mem.countOf(ReqType::Translation), kPtLevels);
    EXPECT_EQ(result, pt.translate(0x12345000));
    EXPECT_EQ(w.stats().walks, 1u);
    for (unsigned l = 0; l < kPtLevels; ++l)
        EXPECT_EQ(w.stats().levelReads[l], 1u);
}

TEST_F(PtwTest, LevelsReadSerially)
{
    auto w = makeWalker();
    w.walk(0, 0x5000, 0, 0, [](Addr, PageSize, RespSource) {});
    // After PSC latency + one memory delay, only one read has issued.
    eq.advanceTo(10);
    EXPECT_EQ(mem.requests.size(), 1u);
    eq.advanceTo(60);
    EXPECT_EQ(mem.requests.size(), 2u);
    test::drain(eq);
    EXPECT_EQ(mem.requests.size(), kPtLevels);
}

TEST_F(PtwTest, PscHitSkipsUpperLevels)
{
    auto w = makeWalker();
    // First walk warms the PSCs.
    w.walk(0, 0x40000000, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    const auto readsAfterFirst = mem.countOf(ReqType::Translation);
    EXPECT_EQ(readsAfterFirst, kPtLevels);

    // Second walk in the same 2MB region: PSCL2 hit -> leaf read only.
    w.walk(0, 0x40000000 + 7 * kPageSize, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    EXPECT_EQ(mem.countOf(ReqType::Translation), readsAfterFirst + 1);
    EXPECT_EQ(w.pscStats().hitsAtLevel[1], 1u); // PSCL2
}

TEST_F(PtwTest, LeafRequestCarriesReplayBlock)
{
    auto w = makeWalker();
    const Addr vaddr = 0x77777123; // offset 0x123 within the page
    w.walk(0, vaddr, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    unsigned leafSeen = 0;
    for (const auto &r : mem.requests) {
        if (r->type != ReqType::Translation)
            continue;
        if (r->ptLevel == 1) {
            ++leafSeen;
            EXPECT_TRUE(r->isLeafTranslation());
            EXPECT_EQ(r->replayBlockPaddr,
                      blockAlign(pt.translate(vaddr)));
        } else {
            EXPECT_EQ(r->replayBlockPaddr, 0u);
        }
    }
    EXPECT_EQ(leafSeen, 1u);
}

TEST_F(PtwTest, SameVpnWalksMerge)
{
    auto w = makeWalker();
    int done = 0;
    w.walk(0, 0x9000, 0, 0, [&](Addr, PageSize, RespSource) { ++done; });
    w.walk(0, 0x9008, 0, 0, [&](Addr, PageSize, RespSource) { ++done; });
    w.walk(0, 0x9ff0, 0, 0, [&](Addr, PageSize, RespSource) { ++done; });
    test::drain(eq);
    EXPECT_EQ(done, 3);
    EXPECT_EQ(w.stats().walks, 1u);
    EXPECT_EQ(w.stats().merged, 2u);
}

TEST_F(PtwTest, ConcurrencyLimitQueuesWalks)
{
    PtwParams p;
    p.maxConcurrentWalks = 2;
    auto w = makeWalker(p);
    int done = 0;
    for (Addr i = 0; i < 5; ++i)
        w.walk(0, (Addr{0x100} + i) << 12, 0, 0,
               [&](Addr, PageSize, RespSource) { ++done; });
    EXPECT_EQ(w.activeWalks(), 2u);
    EXPECT_EQ(w.stats().queued, 3u);
    test::drain(eq);
    EXPECT_EQ(done, 5);
    EXPECT_EQ(w.stats().walks, 5u);
    EXPECT_EQ(w.activeWalks(), 0u);
}

TEST_F(PtwTest, StlbFilledOnCompletion)
{
    Tlb stlb("stlb", 64, 4, 8);
    auto w = makeWalker();
    w.setStlb(&stlb);
    const Addr vaddr = 0xabcd3456;
    w.walk(0, vaddr, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    Addr pa = 0;
    EXPECT_TRUE(stlb.probe(0, vaddr, pa));
    EXPECT_EQ(pa, pt.translate(vaddr));
}

TEST_F(PtwTest, LeafSourceRecorded)
{
    auto w = makeWalker();
    w.walk(0, 0x4000, 0, 0, [](Addr, PageSize, RespSource) {});
    test::drain(eq);
    EXPECT_EQ(w.stats().leafFromDram, 1u); // mock completes as DRAM
}

TEST_F(PtwTest, WalkLatencyIncludesAllLevels)
{
    auto w = makeWalker();
    Cycle finished = 0;
    w.walk(0, 0x8000, 0, 0,
           [&](Addr, PageSize, RespSource) { finished = eq.now(); });
    test::drain(eq);
    // 1 cycle PSC + 5 serial reads of 50 cycles.
    EXPECT_EQ(finished, 1u + kPtLevels * 50u);
    EXPECT_EQ(w.stats().walkLatency.count(), 1u);
    EXPECT_EQ(w.stats().walkLatency.max(), 1u + kPtLevels * 50u);
}

TEST_F(PtwTest, DistinctAsidsWalkDistinctTables)
{
    PageTable pt2(fa);
    auto w = makeWalker();
    w.addAddressSpace(1, &pt2);
    Addr pa0 = 0, pa1 = 0;
    w.walk(0, 0x6000, 0, 0, [&](Addr p, PageSize, RespSource) { pa0 = p; });
    w.walk(1, 0x6000, 0, 1, [&](Addr p, PageSize, RespSource) { pa1 = p; });
    test::drain(eq);
    EXPECT_NE(pa0, 0u);
    EXPECT_NE(pa1, 0u);
    EXPECT_NE(pa0, pa1);
}

/**
 * Walks to a VPN already in flight or queued behind maxConcurrentWalks
 * join that walk: one walk per VPN, and each callback runs once, in
 * arrival order, with the walk's result.
 */
void
expectMergesInArrivalOrder(EventQueue &eq, PageTableWalker &w,
                           PageTable &pt, PageTable *host)
{
    const Addr a = 0x100000, b = 0x200000, c = 0x300000;
    std::vector<int> order;
    std::vector<Addr> paddrs;
    const auto walkTo = [&](Addr vaddr, int tag) {
        w.walk(0, vaddr, 0, 0, [&order, &paddrs, tag](Addr p, PageSize,
                                                      RespSource) {
            order.push_back(tag);
            paddrs.push_back(p);
        });
        EXPECT_NO_THROW(w.checkInvariants());
    };
    walkTo(a, 0);         // starts: the walk file has one slot
    walkTo(b + 0x10, 1);  // queued
    walkTo(a + 0x20, 2);  // merges into the walk in flight
    walkTo(b + 0x30, 3);  // merges into the queued walk
    walkTo(c, 4);         // queued behind b
    walkTo(b + 0x40, 5);  // merges into b, which is not the queue's tail
    walkTo(a + 0x50, 6);  // merges into the walk in flight again
    EXPECT_EQ(w.activeWalks(), 1u);
    test::drain(eq);
    EXPECT_NO_THROW(w.checkInvariants());

    EXPECT_EQ(w.stats().walks, 3u);
    EXPECT_EQ(w.stats().queued, 2u);
    EXPECT_EQ(w.stats().merged, 4u);
    EXPECT_EQ(order, (std::vector<int>{0, 2, 6, 1, 3, 5, 4}));
    const auto data = [&](Addr vaddr) {
        const Addr gpa = pt.translate(vaddr);
        return host ? host->translate(gpa) : gpa;
    };
    EXPECT_EQ(paddrs, (std::vector<Addr>{data(a), data(a), data(a),
                                         data(b + 0x10), data(b + 0x10),
                                         data(b + 0x10), data(c)}));
    EXPECT_EQ(w.activeWalks(), 0u);
}

TEST_F(PtwTest, MergesIntoInFlightAndQueuedWalks)
{
    PtwParams p;
    p.maxConcurrentWalks = 1;
    auto w = makeWalker(p);
    expectMergesInArrivalOrder(eq, w, pt, nullptr);
}

TEST_F(PtwTest, NestedMergesIntoInFlightAndQueuedWalks)
{
    PtwParams p;
    p.maxConcurrentWalks = 1;
    auto w = makeWalker(p);
    FrameAllocator hostFrames;
    PageTable host(hostFrames);
    w.setNestedTranslation(&host);
    expectMergesInArrivalOrder(eq, w, pt, &host);
}

/** Completes every request after a fixed delay and records nothing, so
 *  serving a walk allocates nothing on the port's side. */
class StubPort : public MemDevice
{
  public:
    explicit StubPort(EventQueue &eq) : eq_(eq) {}

    void
    access(const MemRequestPtr &req) override
    {
        eq_.schedule(20, [req, this] {
            req->complete(eq_.now(), RespSource::L2C);
        });
    }

    const std::string &name() const override { return name_; }

  private:
    EventQueue &eq_;
    std::string name_ = "stub";
};

TEST(PtwAllocationTest, SteadyStateWalksAllocateNothing)
{
    EventQueue eq;
    StubPort port(eq);
    FrameAllocator frames, hostFrames;
    PageTable pt(frames);
    pt.mapRegion(Addr{1} << 30, Addr{4} << 20, PageSize::Size2M);
    PageTable host(hostFrames);
    PtwParams p;
    p.maxConcurrentWalks = 2;
    PageTableWalker bare(eq, &port, p, "PTW.0");
    bare.addAddressSpace(0, &pt);
    PageTableWalker nested(eq, &port, p, "PTW.1");
    nested.addAddressSpace(0, &pt);
    nested.setNestedTranslation(&host);

    std::uint64_t done = 0;
    // Bursts of five walks on two slots: each burst starts two, queues
    // three and merges one into a walk in flight and one into a queued
    // walk. PSC hits vary with the VPN, so depths vary too.
    const auto burst = [&](PageTableWalker &w, Addr base, Addr huge) {
        const Addr vpns[] = {base, base + 0x1000, base + 0x2000,
                             base + 0x203000, huge};
        for (const Addr v : vpns)
            w.walk(0, v, 0, 0, [&done](Addr, PageSize, RespSource) {
                ++done;
            });
        w.walk(0, vpns[0] + 8, 0, 0,
               [&done](Addr, PageSize, RespSource) { ++done; });
        w.walk(0, vpns[4] + 8, 0, 0,
               [&done](Addr, PageSize, RespSource) { ++done; });
    };
    const auto run = [&] {
        for (Addr i = 0; i < 16; ++i) {
            const Addr base = (Addr{1} << 32) + i * (Addr{1} << 21);
            const Addr huge = (Addr{1} << 30) + (i % 2) * (Addr{1} << 21);
            burst(bare, base, huge);
            burst(nested, base, huge);
            test::drain(eq);
        }
    };
    run(); // builds the tables and grows every pool to its peak

    const std::uint64_t walks = bare.stats().walks + nested.stats().walks;
    const std::uint64_t before = tNewCalls;
    run();
    const std::uint64_t allocations = tNewCalls - before;

    EXPECT_EQ(done, 2u * 2 * 16 * 7);
    EXPECT_EQ(bare.stats().walks + nested.stats().walks, 2 * walks);
    EXPECT_EQ(bare.stats().merged + nested.stats().merged, 2u * 2 * 16 * 2);
    EXPECT_GT(bare.stats().queued, 0u);
    EXPECT_GT(bare.stats()
                  .walksBySize[static_cast<unsigned>(PageSize::Size2M)],
              0u);
    EXPECT_GT(nested.stats().hostWalks, 0u);
    EXPECT_EQ(allocations, 0u) << "over " << walks << " walks";
}

} // namespace
} // namespace tacsim
