/**
 * @file
 * Policy-seam tests for the event queue: both storage policies must
 * implement the identical (tick, priority, id) ordering contract, the
 * scheduleIn() saturation rule, bounded memory under churn, and the
 * same-tick slot's place in that order.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event_queue.hh"

namespace busarb {
namespace {

class EventQueuePolicyTest
    : public ::testing::TestWithParam<EventQueuePolicy>
{
  protected:
    EventQueue queue_{GetParam()};
};

TEST_P(EventQueuePolicyTest, ReportsItsPolicy)
{
    EXPECT_EQ(queue_.policy(), GetParam());
}

TEST_P(EventQueuePolicyTest, ExecutesInTickPriorityIdOrder)
{
    std::vector<int> order;
    queue_.schedule(30, [&] { order.push_back(5); });
    queue_.schedule(10, [&] { order.push_back(1); }, kPriDefault);
    queue_.schedule(10, [&] { order.push_back(0); }, kPriArbitration);
    queue_.schedule(20, [&] { order.push_back(3); });
    queue_.schedule(20, [&] { order.push_back(4); });
    queue_.schedule(10, [&] { order.push_back(2); }, kPriDefault);
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(queue_.numExecuted(), 6u);
}

TEST_P(EventQueuePolicyTest, DescheduleRemovesOnlyTheTarget)
{
    std::vector<int> order;
    queue_.schedule(1, [&] { order.push_back(1); });
    const auto id = queue_.schedule(2, [&] { order.push_back(2); });
    queue_.schedule(3, [&] { order.push_back(3); });
    EXPECT_TRUE(queue_.deschedule(id));
    EXPECT_FALSE(queue_.deschedule(id));
    EXPECT_EQ(queue_.numPending(), 2u);
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST_P(EventQueuePolicyTest, NextTickSkipsCancelledHead)
{
    const auto id = queue_.schedule(5, [] {});
    queue_.schedule(9, [] {});
    EXPECT_EQ(queue_.nextTick(), 5);
    queue_.deschedule(id);
    EXPECT_EQ(queue_.nextTick(), 9);
}

TEST_P(EventQueuePolicyTest, ScheduleInSaturatesAtMaxTick)
{
    // A delay reaching past kMaxTick must clamp, not overflow.
    queue_.schedule(100, [] {});
    queue_.run();
    ASSERT_EQ(queue_.now(), 100);
    queue_.scheduleIn(kMaxTick, [] {});
    EXPECT_EQ(queue_.nextTick(), kMaxTick);
    queue_.scheduleIn(kMaxTick - 100, [] {}); // exact fit, no clamp
    EXPECT_EQ(queue_.numPending(), 2u);
    EXPECT_EQ(queue_.nextTick(), kMaxTick);
}

TEST_P(EventQueuePolicyTest, EventsAtMaxTickExecute)
{
    bool ran = false;
    queue_.schedule(kMaxTick, [&] { ran = true; });
    queue_.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(queue_.now(), kMaxTick);
    // Saturation keeps scheduleIn legal even at the end of time.
    queue_.scheduleIn(1, [] {});
    EXPECT_EQ(queue_.nextTick(), kMaxTick);
}

TEST_P(EventQueuePolicyTest, SaturatedSentinelCanBeDescheduled)
{
    // The "never, unless the horizon is infinite" idiom: park a
    // sentinel at kMaxTick, then cancel it.
    const auto id = queue_.scheduleIn(kMaxTick, [] {});
    bool ran = false;
    queue_.schedule(7, [&] { ran = true; });
    EXPECT_EQ(queue_.run(1000), 1u);
    EXPECT_TRUE(ran);
    EXPECT_TRUE(queue_.deschedule(id));
    EXPECT_TRUE(queue_.empty());
}

TEST_P(EventQueuePolicyTest, ChurnDoesNotGrowMemoryUnbounded)
{
    // Schedule/deschedule churn against far-future events: tombstones
    // (heap) must compact and node slots (calendar) must recycle, so
    // neither footprint tracks the total number of operations.
    std::vector<EventQueue::EventId> parked;
    for (int i = 0; i < 32; ++i)
        parked.push_back(
            queue_.schedule(1'000'000 + i, [] {}, kPriStats));

    for (int round = 0; round < 2000; ++round) {
        const auto id = queue_.schedule(2'000'000 + round, [] {});
        EXPECT_TRUE(queue_.deschedule(id));
        EXPECT_LE(queue_.numTombstones(),
                  queue_.numPending() / 2 + 1);
    }
    // 32 live events after 2000 churn rounds: capacity must reflect the
    // high-water mark (a few dozen slots), not the operation count.
    EXPECT_EQ(queue_.numPending(), 32u);
    EXPECT_LE(queue_.nodeCapacity(), 256u);

    for (const auto id : parked)
        EXPECT_TRUE(queue_.deschedule(id));
    EXPECT_TRUE(queue_.empty());
}

/** A same-tick slot function: appends `value` to `order`. */
struct SlotMark
{
    std::vector<int> *order;
    int value;

    static void
    run(void *self)
    {
        const auto *mark = static_cast<const SlotMark *>(self);
        mark->order->push_back(mark->value);
    }
};

TEST_P(EventQueuePolicyTest, ArmedSlotAloneIsAnEntry)
{
    queue_.schedule(7, [] {});
    queue_.run();
    std::vector<int> order;
    SlotMark mark{&order, 1};
    queue_.armSameTick(&SlotMark::run, &mark, kPriBeginPass);
    EXPECT_FALSE(queue_.empty());
    EXPECT_EQ(queue_.nextTick(), queue_.now());
    EXPECT_EQ(queue_.numPending(), 0u);
    EXPECT_TRUE(queue_.runOne());
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(queue_.now(), 7);
    // The slot is not an event: the count holds the one event only.
    EXPECT_EQ(queue_.numExecuted(), 1u);
    EXPECT_TRUE(queue_.empty());
    EXPECT_FALSE(queue_.runOne());
}

TEST_P(EventQueuePolicyTest, RunRunsTheArmedSlot)
{
    std::vector<int> order;
    SlotMark mark{&order, 1};
    queue_.armSameTick(&SlotMark::run, &mark, kPriBeginPass);
    EXPECT_EQ(queue_.run(0), 0u);
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_TRUE(queue_.empty());
    // Freed once it ran, so it can be armed again.
    queue_.armSameTick(&SlotMark::run, &mark, kPriBeginPass);
    EXPECT_EQ(queue_.run(), 0u);
    EXPECT_EQ(order, (std::vector<int>{1, 1}));
}

TEST_P(EventQueuePolicyTest, SlotSortsAsAnEventScheduledNow)
{
    // Same tick, same priority: the slot's place in the id sequence
    // decides, exactly as for an event scheduled where it was armed.
    std::vector<int> order;
    SlotMark mark{&order, 3};
    queue_.schedule(0, [&] { order.push_back(5); }, kPriDefault);
    queue_.schedule(0, [&] { order.push_back(2); }, kPriBeginPass);
    queue_.armSameTick(&SlotMark::run, &mark, kPriBeginPass);
    queue_.schedule(0, [&] { order.push_back(4); }, kPriBeginPass);
    queue_.schedule(0, [&] { order.push_back(1); }, kPriRequestArrival);
    queue_.schedule(1, [&] { order.push_back(6); }, kPriTransactionEnd);
    queue_.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
    EXPECT_EQ(queue_.numExecuted(), 5u);
}

using EventQueuePolicyDeathTest = EventQueuePolicyTest;

TEST_P(EventQueuePolicyDeathTest, DeathOnContractViolations)
{
    EXPECT_DEATH(queue_.scheduleIn(-1, [] {}), "negative delay");
    EXPECT_DEATH(queue_.schedule(1, EventQueue::Callback{}),
                 "null event");
    queue_.schedule(10, [] {});
    queue_.run();
    EXPECT_DEATH(queue_.schedule(5, [] {}), "scheduling into the past");
}

TEST_P(EventQueuePolicyDeathTest, ArmingTheSlotTwicePanics)
{
    std::vector<int> order;
    SlotMark mark{&order, 1};
    queue_.armSameTick(&SlotMark::run, &mark, kPriBeginPass);
    EXPECT_DEATH(queue_.armSameTick(&SlotMark::run, &mark, kPriDefault),
                 "same-tick slot armed twice");
}

const auto kPolicyName =
    [](const ::testing::TestParamInfo<EventQueuePolicy> &info) {
        return std::string(info.param == EventQueuePolicy::kCalendar
                               ? "calendar"
                               : "heap");
    };

INSTANTIATE_TEST_SUITE_P(
    BothPolicies, EventQueuePolicyTest,
    ::testing::Values(EventQueuePolicy::kCalendar,
                      EventQueuePolicy::kHeap),
    kPolicyName);

INSTANTIATE_TEST_SUITE_P(
    BothPolicies, EventQueuePolicyDeathTest,
    ::testing::Values(EventQueuePolicy::kCalendar,
                      EventQueuePolicy::kHeap),
    kPolicyName);

/**
 * High-churn random schedule/cancel fuzz pushed through both policies
 * in lock-step, asserting identical execution order, now() trajectory,
 * and numExecuted() — the queue-level half of the differential proof
 * (the full-scenario half lives in tests/experiment).
 */
TEST(EventQueueDifferentialTest, RandomChurnExecutesIdentically)
{
    constexpr int kOps = 5000;
    const int priorities[] = {kPriTransactionEnd, kPriArbitration,
                              kPriRequestArrival, kPriBeginPass,
                              kPriDefault, kPriStats};

    const auto drive = [&](EventQueue &q) {
        // (op sequence number, execution tick) log; ids are assigned
        // identically on both sides because the op sequence is.
        std::vector<std::pair<int, Tick>> log;
        std::vector<Tick> trajectory;
        std::vector<EventQueue::EventId> live;
        std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
        const auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            return rng;
        };
        for (int op = 0; op < kOps; ++op) {
            const std::uint64_t roll = next() % 100;
            if (roll < 55 || live.empty()) {
                const Tick delay = static_cast<Tick>(next() % 64);
                const int pri = priorities[next() % 6];
                live.push_back(q.scheduleIn(
                    delay,
                    [&log, &q, op] { log.emplace_back(op, q.now()); },
                    pri));
            } else if (roll < 75) {
                const std::size_t victim = next() % live.size();
                q.deschedule(live[victim]);
                live.erase(live.begin() +
                           static_cast<std::ptrdiff_t>(victim));
            } else {
                q.runOne();
                trajectory.push_back(q.now());
            }
        }
        q.run();
        trajectory.push_back(q.now());
        return std::make_tuple(log, trajectory, q.numExecuted());
    };

    EventQueue calendar(EventQueuePolicy::kCalendar);
    EventQueue heap(EventQueuePolicy::kHeap);
    const auto [cal_log, cal_traj, cal_count] = drive(calendar);
    const auto [heap_log, heap_traj, heap_count] = drive(heap);
    EXPECT_EQ(cal_log, heap_log);
    EXPECT_EQ(cal_traj, heap_traj);
    EXPECT_EQ(cal_count, heap_count);
    EXPECT_GT(cal_count, 1000u);
}

/**
 * One side of the same-tick differential: a queue that arms the slot
 * (slot = true) or the reference that schedules the same call as an
 * event at (now, priority) (slot = false).
 */
struct SameTickDriver
{
    EventQueue q;
    bool slot;
    std::vector<std::pair<int, Tick>> log;
    std::vector<EventQueue::EventId> live; // ordinary events only
    bool armed = false;
    int armedOp = 0;
    std::uint64_t armedRuns = 0;

    static constexpr int kPriorities[] = {
        kPriTransactionEnd, kPriArbitration, kPriRequestArrival,
        kPriBeginPass,      kPriDefault,     kPriStats};

    SameTickDriver(EventQueuePolicy policy, bool use_slot)
        : q(policy), slot(use_slot)
    {
    }

    /** Arm (or schedule now) the call for `op`, unless one is pending. */
    void
    arm(int op, int priority)
    {
        if (armed)
            return;
        armed = true;
        armedOp = op;
        if (slot) {
            q.armSameTick(
                [](void *self) {
                    static_cast<SameTickDriver *>(self)->fire();
                },
                this, priority);
        } else {
            q.schedule(q.now(), [this] { fire(); }, priority);
        }
    }

    /** The armed call: logs itself; some schedule or re-arm, as a pass
     *  start schedules its completion. */
    void
    fire()
    {
        armed = false;
        ++armedRuns;
        const int op = armedOp;
        log.emplace_back(-1 - op, q.now());
        if (op % 3 == 0)
            event(op + 100000, op % 4, kPriorities[op % 6]);
        if (op % 7 == 0)
            arm(op + 200000, kPriorities[(op / 7) % 6]);
    }

    /** An ordinary event; some arm the call when they run, as an
     *  arrival arms a pass start. */
    void
    event(int op, Tick delay, int priority)
    {
        live.push_back(q.scheduleIn(
            delay,
            [this, op] {
                log.emplace_back(op, q.now());
                if (op % 4 == 0)
                    arm(op, kPriorities[(op / 4) % 6]);
            },
            priority));
    }
};

/**
 * The same-tick slot is exactly the event it stands for: random
 * schedules at every priority, deschedules and slot arms (from the top
 * level, from events and from the slot itself) pushed through a queue
 * that arms the slot and a reference of the same policy that schedules
 * an event at (now, priority) in its place. Execution order, the now()
 * trajectory and the event count (less the slot's runs) must match.
 */
class SameTickDifferentialTest
    : public ::testing::TestWithParam<EventQueuePolicy>
{
};

TEST_P(SameTickDifferentialTest, SlotRunsWhereItsEventWould)
{
    constexpr int kOps = 8000;
    const auto drive = [](SameTickDriver &d) {
        std::vector<Tick> trajectory;
        std::uint64_t rng = 0x2545f4914f6cdd1dULL;
        const auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            return rng;
        };
        for (int op = 0; op < kOps; ++op) {
            const std::uint64_t roll = next() % 100;
            // Short delays: most entries tie on a tick with others.
            const Tick delay = static_cast<Tick>(next() % 4);
            const int pri = SameTickDriver::kPriorities[next() % 6];
            if (roll < 35) {
                d.event(op, delay, pri);
            } else if (roll < 47) {
                d.arm(op, pri);
            } else if (roll < 57 && !d.live.empty()) {
                const std::size_t victim = next() % d.live.size();
                d.q.deschedule(d.live[victim]);
                d.live.erase(d.live.begin() +
                             static_cast<std::ptrdiff_t>(victim));
            } else {
                d.q.runOne();
                trajectory.push_back(d.q.now());
            }
        }
        d.q.run();
        trajectory.push_back(d.q.now());
        return trajectory;
    };

    SameTickDriver slot(GetParam(), true);
    SameTickDriver reference(GetParam(), false);
    const std::vector<Tick> slot_traj = drive(slot);
    const std::vector<Tick> ref_traj = drive(reference);
    EXPECT_EQ(slot.log, reference.log);
    EXPECT_EQ(slot_traj, ref_traj);
    EXPECT_EQ(slot.armedRuns, reference.armedRuns);
    EXPECT_EQ(slot.q.numExecuted(),
              reference.q.numExecuted() - reference.armedRuns);
    EXPECT_TRUE(slot.q.empty());
    EXPECT_GT(slot.armedRuns, 400u);
    EXPECT_GT(slot.q.numExecuted(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    BothPolicies, SameTickDifferentialTest,
    ::testing::Values(EventQueuePolicy::kCalendar,
                      EventQueuePolicy::kHeap),
    kPolicyName);

/** The calendar must stay correct across growth-driven rebuilds. */
TEST(EventQueueDifferentialTest, GrowthAndDrainMatchAcrossPolicies)
{
    EventQueue calendar(EventQueuePolicy::kCalendar,
                        CalendarTuning{3, 4}); // tiny: force rebuilds
    EventQueue heap(EventQueuePolicy::kHeap);
    const auto drive = [](EventQueue &q) {
        std::vector<std::pair<int, Tick>> log;
        std::uint64_t rng = 12345;
        for (int i = 0; i < 4000; ++i) {
            rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
            const Tick when = static_cast<Tick>(rng % 1'000'000);
            q.schedule(when,
                       [&log, &q, i] { log.emplace_back(i, q.now()); });
        }
        q.run();
        return log;
    };
    EXPECT_EQ(drive(calendar), drive(heap));
    EXPECT_EQ(calendar.numExecuted(), 4000u);
}

} // namespace
} // namespace busarb
