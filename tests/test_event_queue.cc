/**
 * @file
 * Unit tests for the discrete-event queue: ordering, tie-breaking,
 * advanceTo semantics and re-entrancy.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/event_queue.hh"

namespace tacsim {
namespace {

TEST(EventQueue, StartsEmptyAtZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.nextEventCycle(), 0u);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.advanceTo(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventQueue, SameCycleEventsFireInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.advanceTo(5);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, AdvanceToStopsAtTarget)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.advanceTo(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 15u);
    EXPECT_EQ(eq.nextEventCycle(), 20u);
}

TEST(EventQueue, EventsMayScheduleMoreEventsWithinWindow)
{
    EventQueue eq;
    std::vector<Cycle> times;
    eq.schedule(5, [&] {
        times.push_back(eq.now());
        eq.schedule(5, [&] { times.push_back(eq.now()); });
    });
    eq.advanceTo(20);
    ASSERT_EQ(times.size(), 2u);
    EXPECT_EQ(times[0], 5u);
    EXPECT_EQ(times[1], 10u);
}

TEST(EventQueue, ChainedEventBeyondWindowIsDeferred)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { eq.schedule(100, [&] { ++fired; }); });
    eq.advanceTo(50);
    EXPECT_EQ(fired, 0);
    eq.advanceTo(105);
    EXPECT_EQ(fired, 1);
}

#if defined(TACSIM_VERIFY_ENABLED) || !defined(NDEBUG)

TEST(EventQueueDeathTest, ScheduleAtInPastAbortsWhenChecksAreLive)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    eq.advanceTo(100);
    EXPECT_DEATH(eq.scheduleAt(10, [] {}), "scheduleAt in the past");
}

#else

TEST(EventQueue, ScheduleAtInPastClampsToNow)
{
    // Release safety net only: with TACSIM_DCHECK compiled in, past
    // scheduling aborts instead (see the death test above).
    EventQueue eq;
    eq.advanceTo(100);
    int fired = 0;
    eq.scheduleAt(10, [&] { ++fired; });
    EXPECT_EQ(eq.nextEventCycle(), 100u);
    eq.advanceTo(100);
    EXPECT_EQ(fired, 1);
}

#endif

TEST(EventQueue, ResetDropsPendingEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(5, [&] { ++fired; });
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now(), 0u);
    eq.advanceTo(100);
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, SizeTracksPendingEvents)
{
    EventQueue eq;
    for (int i = 1; i <= 5; ++i)
        eq.schedule(static_cast<Cycle>(i), [] {});
    EXPECT_EQ(eq.size(), 5u);
    eq.advanceTo(3);
    EXPECT_EQ(eq.size(), 2u);
}

TEST(EventQueue, FarFutureEventsFireInTimeOrder)
{
    // Events thousands of cycles out overflow the calendar window and
    // must still interleave correctly with near-future ones.
    EventQueue eq;
    std::vector<Cycle> times;
    auto record = [&] { times.push_back(eq.now()); };
    eq.scheduleAt(9000, record);
    eq.scheduleAt(12, record);
    eq.scheduleAt(4096, record);
    eq.scheduleAt(2047, record);
    eq.scheduleAt(100000, record);
    eq.advanceTo(200000);
    EXPECT_EQ(times,
              (std::vector<Cycle>{12, 2047, 4096, 9000, 100000}));
}

TEST(EventQueue, SameCycleOrderSurvivesHeapMigration)
{
    // e1 is scheduled for cycle 5000 while that cycle is far outside
    // the window (it waits in the overflow heap); e2 is scheduled for
    // the same cycle once the window has advanced over it. Insertion
    // (seq) order must still decide who fires first.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(5000, [&] { order.push_back(1); });
    eq.advanceTo(4500);
    eq.scheduleAt(5000, [&] { order.push_back(2); });
    eq.advanceTo(5000);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, ExecutedCountsAllFiredEvents)
{
    EventQueue eq;
    for (int i = 0; i < 10; ++i)
        eq.schedule(static_cast<Cycle>(i % 3), [] {});
    eq.advanceTo(10);
    EXPECT_EQ(eq.executed(), 10u);
    eq.reset();
    EXPECT_EQ(eq.executed(), 0u);
}

TEST(EventQueue, HeapMigrationAtExactWindowBoundary)
{
    // At t=0 the calendar covers [0, 1024): cycle 1023 is the last
    // bucketed cycle and cycle 1024 — exactly windowEnd — waits in the
    // overflow heap. An event at cycle 1 slides the window to [1, 1025),
    // migrating both boundary events in (when, seq) order; its callback
    // then appends a third cycle-1024 event directly to the bucket,
    // which must keep insertion order behind the migrated pair.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(1024, [&] { order.push_back(1); }); // heap, seq 0
    eq.scheduleAt(1023, [&] { order.push_back(0); }); // bucket
    eq.scheduleAt(1024, [&] { order.push_back(2); }); // heap, seq 2
    eq.schedule(1, [&] { eq.scheduleAt(1024, [&] { order.push_back(3); }); });
    eq.advanceTo(2000);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, WindowBoundaryCycleDoesNotAliasIntoCurrentBucket)
{
    // Cycles 0 and 1024 map to the same bucket index. The boundary
    // condition must be strict (`when < windowEnd`): an off-by-one that
    // bucketed cycle 1024 at t=0 would fire it 1024 cycles early,
    // aliased into cycle 0's FIFO.
    EventQueue eq;
    std::vector<Cycle> times;
    auto record = [&] { times.push_back(eq.now()); };
    eq.scheduleAt(0, record);
    eq.scheduleAt(1024, record);
    eq.advanceTo(1500);
    EXPECT_EQ(times, (std::vector<Cycle>{0, 1024}));
}

TEST(EventQueue, EventExactlyAtNewWindowEndStaysDeferred)
{
    // After the window advances to [1, 1025), cycle 1024 migrates into
    // its bucket but cycle 1025 — exactly the new windowEnd — must stay
    // in the heap, and still fire at the right time later.
    EventQueue eq;
    std::vector<Cycle> times;
    auto record = [&] { times.push_back(eq.now()); };
    eq.scheduleAt(1024, record);
    eq.scheduleAt(1025, record);
    eq.schedule(1, [] {});
    eq.advanceTo(1024);
    EXPECT_EQ(times, (std::vector<Cycle>{1024}));
    eq.advanceTo(1025);
    EXPECT_EQ(times, (std::vector<Cycle>{1024, 1025}));
}

TEST(EventQueue, ResetDropsFarFutureEventsToo)
{
    // Pending overflow-heap events must be destroyed on reset (their
    // captures may own shared_ptrs — leaking them trips ASan).
    EventQueue eq;
    auto token = std::make_shared<int>(7);
    std::weak_ptr<int> watch = token;
    eq.scheduleAt(50000, [token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());
    eq.reset();
    EXPECT_TRUE(watch.expired());
}

} // namespace
} // namespace tacsim
