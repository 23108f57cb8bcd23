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

/** A timer-slot function: counts its runs and re-arms itself. */
struct Ticker
{
    EventQueue *q;
    std::vector<Tick> runs;
    int rearms = 0;

    static void
    fire(void *self)
    {
        auto *ticker = static_cast<Ticker *>(self);
        ticker->runs.push_back(ticker->q->now());
        if (ticker->rearms-- > 0)
            ticker->q->armTimer(0, 10, &Ticker::fire, ticker, kPriDefault);
    }
};

TEST(EventQueueTest, TimerRearmsItselfFromItsOwnFunction)
{
    // The slot is free before its function runs, as the bus's tenure
    // end starts the next tenure and arms the same timer again.
    EventQueue q;
    Ticker ticker{&q, {}, 3};
    q.armTimer(0, 10, &Ticker::fire, &ticker, kPriDefault);
    EXPECT_EQ(q.run(), 4u);
    EXPECT_EQ(ticker.runs, (std::vector<Tick>{10, 20, 30, 40}));
    EXPECT_EQ(q.numExecuted(), 4u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NextTickAndRunStopAtAnArmedTimer)
{
    EventQueue q;
    Ticker ticker{&q, {}, 0};
    q.schedule(5, [] {});
    q.armTimer(1, 20, &Ticker::fire, &ticker, kPriTransactionEnd);
    q.schedule(30, [] {});
    EXPECT_EQ(q.nextTick(), 5);
    EXPECT_EQ(q.run(19), 1u);
    EXPECT_EQ(q.nextTick(), 20);
    EXPECT_TRUE(ticker.runs.empty());
    EXPECT_EQ(q.run(20), 1u); // inclusive horizon, the timer counted
    EXPECT_EQ(ticker.runs, (std::vector<Tick>{20}));
    EXPECT_EQ(q.now(), 20);
    EXPECT_EQ(q.nextTick(), 30);
}

TEST(EventQueueTest, ArmedTimerIsAPendingEvent)
{
    EventQueue q;
    Ticker ticker{&q, {}, 0};
    q.armTimer(0, 3, &Ticker::fire, &ticker, kPriArbitration);
    EXPECT_FALSE(q.empty());
    EXPECT_EQ(q.numPending(), 1u);
    EXPECT_EQ(q.nextTick(), 3);
    EXPECT_TRUE(q.runOne());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.numPending(), 0u);
    EXPECT_EQ(q.numExecuted(), 1u);
    EXPECT_FALSE(q.runOne());
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
    // schedule() takes only callables; the plain function pointers the
    // queue accepts are its slots'.
    EventQueue q;
    EXPECT_DEATH(q.armSameTick(nullptr, nullptr, kPriBeginPass),
                 "null same-tick function");
}

TEST(EventQueueDeathTest, NegativeDelayPanics)
{
    EventQueue q;
    EXPECT_DEATH(q.scheduleIn(-1, [] {}), "negative delay");
    Ticker ticker{&q, {}, 0};
    EXPECT_DEATH(q.armTimer(0, -1, &Ticker::fire, &ticker, kPriDefault),
                 "negative delay");
}

TEST(EventQueueDeathTest, ArmingAnArmedTimerPanics)
{
    EventQueue q;
    Ticker ticker{&q, {}, 0};
    q.armTimer(1, 4, &Ticker::fire, &ticker, kPriDefault);
    // Each slot is armed on its own: timer 0 is still free.
    q.armTimer(0, 4, &Ticker::fire, &ticker, kPriDefault);
    EXPECT_DEATH(q.armTimer(1, 9, &Ticker::fire, &ticker, kPriDefault),
                 "timer slot 1 armed twice");
    EXPECT_DEATH(q.armTimer(0, 9, nullptr, &ticker, kPriDefault),
                 "null timer function");
}

TEST(EventQueueDeathTest, OutOfRangeTimerPanics)
{
    EventQueue q;
    Ticker ticker{&q, {}, 0};
    EXPECT_DEATH(q.armTimer(EventQueue::kTimerSlots, 1, &Ticker::fire,
                            &ticker, kPriDefault),
                 "timer slot out of range");
}

} // namespace
} // namespace busarb
