/**
 * @file
 * Unit tests for the OoO core model: retire bounds, dependence
 * serialization, stall attribution (the paper's T/R/N split), store
 * semantics and the cycle-skip contract.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "core/core.hh"
#include "test_util.hh"
#include "vm/page_table.hh"

namespace tacsim {
namespace {

/** Scriptable workload: replays a fixed list of records, then NonMem. */
class ScriptWorkload : public Workload
{
  public:
    TraceRecord
    next() override
    {
        if (script.empty()) {
            TraceRecord t;
            t.ip = 0x400000;
            return t;
        }
        TraceRecord t = script.front();
        script.pop_front();
        return t;
    }

    std::string name() const override { return "script"; }
    Addr footprint() const override { return 1 << 20; }

    std::deque<TraceRecord> script;
};

TraceRecord
loadRec(Addr vaddr, bool dep = false, Addr ip = 0x400010)
{
    TraceRecord t;
    t.ip = ip;
    t.kind = TraceRecord::Kind::Load;
    t.vaddr = vaddr;
    t.dependsOnPrevLoad = dep;
    return t;
}

TraceRecord
storeRec(Addr vaddr)
{
    TraceRecord t;
    t.ip = 0x400020;
    t.kind = TraceRecord::Kind::Store;
    t.vaddr = vaddr;
    return t;
}

struct CoreEnv
{
    EventQueue eq;
    test::MockMemory mem{eq, 60};
    FrameAllocator fa;
    PageTable pt{fa};
    Tlb dtlb{"dtlb", 64, 4, 1};
    Tlb stlb{"stlb", 2048, 16, 8};
    PageTableWalker ptw{eq, &mem};
    ScriptWorkload wl;

    CoreEnv()
    {
        ptw.addAddressSpace(0, &pt);
        ptw.setStlb(&stlb);
    }

    Core
    makeCore(CoreParams p = {})
    {
        return Core(p, eq, wl, dtlb, stlb, ptw, mem);
    }

    /** Tick the core until it retires >= n instructions (bounded). */
    Cycle
    runUntil(Core &core, std::uint64_t n, Cycle maxCycles = 200000)
    {
        Cycle c = 0;
        while (core.retired() < n && c < maxCycles) {
            eq.advanceTo(c);
            core.tick();
            ++c;
        }
        return c;
    }
};

struct CoreTest : ::testing::Test, CoreEnv
{};

TEST_F(CoreTest, NonMemIpcBoundedByRetireWidth)
{
    auto core = makeCore();
    const Cycle cycles = runUntil(core, 4000);
    const double ipc = 4000.0 / double(cycles);
    EXPECT_LE(ipc, 4.05);
    EXPECT_GT(ipc, 3.5); // non-mem stream should saturate retire width
}

TEST_F(CoreTest, LoadsCompleteAndRetire)
{
    for (int i = 0; i < 10; ++i)
        wl.script.push_back(loadRec(Addr(0x1000) + Addr(i) * 0x40));
    auto core = makeCore();
    runUntil(core, 20);
    EXPECT_EQ(core.stats().loads, 10u);
    EXPECT_EQ(mem.countOf(ReqType::Load), 10u);
}

TEST_F(CoreTest, DependentChainSerializes)
{
    // Independent loads overlap; dependent ones serialize, so the same
    // count of loads takes much longer.
    for (int i = 0; i < 16; ++i)
        wl.script.push_back(loadRec(Addr(0x100000) + Addr(i) * 0x40));
    auto indep = makeCore();
    const Cycle tIndep = runUntil(indep, 17);

    // Fresh environment for the dependent variant.
    CoreEnv env2;
    for (int i = 0; i < 16; ++i)
        env2.wl.script.push_back(
            loadRec(Addr(0x100000) + Addr(i) * 0x40, /*dep=*/true));
    auto dep = env2.makeCore();
    const Cycle tDep = env2.runUntil(dep, 17);

    EXPECT_GT(tDep, tIndep + 60 * 8); // at least ~8 serialized misses
}

TEST_F(CoreTest, StlbMissAttributedToTranslationThenReplay)
{
    wl.script.push_back(loadRec(0x5000));
    auto core = makeCore();
    runUntil(core, 2);
    const CoreStats &s = core.stats();
    EXPECT_EQ(s.stlbMissAccesses, 1u);
    EXPECT_GT(s.stallCyclesT, 0u);
    EXPECT_GT(s.stallCyclesR, 0u);
    // The single walking load recorded one sample in each histogram.
    EXPECT_EQ(s.stallPerWalk.count(), 1u);
    EXPECT_EQ(s.stallPerReplay.count(), 1u);
}

TEST_F(CoreTest, DtlbHitLoadIsNonReplay)
{
    wl.script.push_back(loadRec(0x5000)); // walks, fills TLBs
    // Dependent so it issues only after the walk fills the DTLB.
    wl.script.push_back(loadRec(0x5040, /*dep=*/true));
    auto core = makeCore();
    runUntil(core, 3);
    EXPECT_EQ(core.stats().stlbMissAccesses, 1u);
    EXPECT_EQ(core.stats().stallPerNonReplay.count(), 1u);
    // The second load's request is not marked replay.
    bool foundNonReplay = false;
    for (const auto &r : mem.requests)
        if (r->type == ReqType::Load && !r->isReplay &&
            r->vaddr == 0x5040)
            foundNonReplay = true;
    EXPECT_TRUE(foundNonReplay);
}

TEST_F(CoreTest, ReplayLoadMarkedReplay)
{
    wl.script.push_back(loadRec(0x5000));
    auto core = makeCore();
    runUntil(core, 2);
    bool foundReplay = false;
    for (const auto &r : mem.requests)
        if (r->type == ReqType::Load && r->isReplay)
            foundReplay = true;
    EXPECT_TRUE(foundReplay);
}

TEST_F(CoreTest, StoresRetireWithoutWaitingForData)
{
    wl.script.push_back(storeRec(0x6000));
    auto core = makeCore();
    const Cycle cycles = runUntil(core, 2);
    EXPECT_EQ(core.stats().stores, 1u);
    // Store waits for translation (a full walk here) but not for the
    // 60-cycle data access on top of it.
    EXPECT_LT(cycles, 1u + 9 + 5 * 60 + 60);
    EXPECT_EQ(mem.countOf(ReqType::Store), 1u);
}

TEST_F(CoreTest, BlockedRequiresFullRobAndIncompleteHead)
{
    // {robSize, ticks of 6-wide dispatch that fill it}. A 6-entry ROB
    // is full after one tick although its ring storage rounds up to 8.
    const std::pair<unsigned, int> inputs[] = {{8, 4}, {6, 1}};
    for (const auto &[robSize, ticksToFill] : inputs) {
        SCOPED_TRACE(robSize);
        CoreEnv env;
        CoreParams p;
        p.robSize = robSize;
        env.wl.script.push_back(loadRec(0x7000));
        auto core = env.makeCore(p);
        EXPECT_FALSE(core.blocked());
        // Fill the ROB behind the slow load.
        for (int i = 0; i < ticksToFill; ++i)
            core.tick();
        EXPECT_TRUE(core.blocked());
        test::drain(env.eq);
        core.tick();
        EXPECT_FALSE(core.blocked());
    }
}

TEST_F(CoreTest, DependentsIssueAfterProducerDataInDispatchOrder)
{
    // Each group: a load, then two stores and a load that all depend on
    // it. The 6-entry ROB's 8-slot ring wraps 25 times over the 200
    // records, so every slot is reused with stale wake links.
    constexpr int kGroups = 50;
    auto vaddrOf = [](int group, int k) {
        return Addr(0x200000) + Addr(group) * 0x100 + Addr(k) * 0x40;
    };
    for (int g = 0; g < kGroups; ++g) {
        wl.script.push_back(loadRec(vaddrOf(g, 0)));
        TraceRecord st1 = storeRec(vaddrOf(g, 1));
        st1.dependsOnPrevLoad = true;
        TraceRecord st2 = storeRec(vaddrOf(g, 2));
        st2.dependsOnPrevLoad = true;
        wl.script.push_back(st1);
        wl.script.push_back(st2);
        wl.script.push_back(loadRec(vaddrOf(g, 3), /*dep=*/true));
    }
    CoreParams p;
    p.robSize = 6;
    auto core = makeCore(p);
    runUntil(core, 4 * kGroups + 1);
    ASSERT_GE(core.retired(), 4u * kGroups + 1);

    // Data requests by vaddr, in the order they reached memory.
    const ReqType kType[4] = {ReqType::Load, ReqType::Store,
                              ReqType::Store, ReqType::Load};
    for (int g = 0; g < kGroups; ++g) {
        SCOPED_TRACE(g);
        std::size_t at[4] = {};
        for (int k = 0; k < 4; ++k) {
            int found = 0;
            for (std::size_t i = 0; i < mem.requests.size(); ++i) {
                const MemRequestPtr &r = mem.requests[i];
                if (r->type == kType[k] && r->vaddr == vaddrOf(g, k)) {
                    at[k] = i;
                    ++found;
                }
            }
            ASSERT_EQ(found, 1) << "record " << k;
        }
        const MemRequestPtr &producer = mem.requests[at[0]];
        ASSERT_TRUE(producer->done);
        for (int k = 1; k < 4; ++k) {
            EXPECT_GT(at[k], at[k - 1]) << "record " << k;
            EXPECT_GE(mem.requests[at[k]]->issuedAt,
                      producer->completedAt)
                << "record " << k;
        }
    }
}

TEST_F(CoreTest, ChargeSkippedCyclesAccumulatesStall)
{
    CoreParams p;
    p.robSize = 8;
    wl.script.push_back(loadRec(0x7000));
    auto core = makeCore(p);
    for (int i = 0; i < 4; ++i)
        core.tick();
    const auto before = core.stats().stallCyclesT +
        core.stats().stallCyclesR + core.stats().stallCyclesN;
    core.chargeSkippedCycles(100);
    const auto after = core.stats().stallCyclesT +
        core.stats().stallCyclesR + core.stats().stallCyclesN;
    EXPECT_EQ(after, before + 100);
}

TEST_F(CoreTest, ResetStatsZeroesCounters)
{
    wl.script.push_back(loadRec(0x5000));
    auto core = makeCore();
    runUntil(core, 10);
    core.resetStats();
    EXPECT_EQ(core.retired(), 0u);
    EXPECT_EQ(core.stats().stallCyclesT, 0u);
    EXPECT_EQ(core.stats().stallPerWalk.count(), 0u);
}

} // namespace
} // namespace tacsim
