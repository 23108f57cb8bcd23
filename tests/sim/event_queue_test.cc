/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace busarb {
namespace {

TEST(EventQueueTest, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.now(), 0);
    EXPECT_EQ(q.nextTick(), kMaxTick);
    EXPECT_EQ(q.numExecuted(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueueTest, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueueTest, SameTickOrderedByPriority)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(2); }, kPriRequestArrival);
    q.schedule(5, [&] { order.push_back(0); }, kPriTransactionEnd);
    q.schedule(5, [&] { order.push_back(1); }, kPriArbitration);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, SameTickSamePriorityIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.run();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, ScheduleInIsRelativeToNow)
{
    EventQueue q;
    Tick seen = -1;
    q.schedule(100, [&] {
        q.scheduleIn(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150);
}

TEST(EventQueueTest, RunHonorsHorizon)
{
    EventQueue q;
    int executed = 0;
    q.schedule(10, [&] { ++executed; });
    q.schedule(20, [&] { ++executed; });
    q.schedule(21, [&] { ++executed; });
    EXPECT_EQ(q.run(20), 2u); // inclusive horizon
    EXPECT_EQ(executed, 2);
    EXPECT_EQ(q.nextTick(), 21);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleIn(1, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 4);
    EXPECT_EQ(q.numExecuted(), 5u);
}

TEST(EventQueueTest, NumPendingTracksLiveEvents)
{
    EventQueue q;
    q.schedule(1, [] {});
    q.schedule(2, [] {});
    EXPECT_EQ(q.numPending(), 2u);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.numPending(), 1u);
    q.run();
    EXPECT_EQ(q.numPending(), 0u);
}

TEST(EventQueueTest, TimeDoesNotAdvancePastLastEvent)
{
    EventQueue q;
    q.schedule(42, [] {});
    q.run(1000);
    EXPECT_EQ(q.now(), 42);
}

TEST(EventQueueDeathTest, SchedulingIntoThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_DEATH(q.schedule(5, [] {}), "scheduling into the past");
}

TEST(EventQueueDeathTest, NullCallbackPanics)
{
    // schedule() takes only callables; the one plain function pointer
    // the queue accepts is the same-tick slot's.
    EventQueue q;
    EXPECT_DEATH(q.armSameTick(nullptr, nullptr, kPriBeginPass),
                 "null same-tick function");
}

TEST(EventQueueDeathTest, NegativeDelayPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.scheduleIn(-1, [] {}), "negative delay");
}

} // namespace
} // namespace busarb
