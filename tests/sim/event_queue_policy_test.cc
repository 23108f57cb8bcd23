/**
 * @file
 * Policy-seam tests for the event queue: both storage policies must
 * implement the identical (tick, priority, id) ordering contract, the
 * scheduleIn() saturation rule, bounded memory under churn, and the
 * slots' place in that order.
 */

#include <array>
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

TEST_P(EventQueuePolicyTest, ChurnDoesNotGrowMemoryUnbounded)
{
    // Schedule/run churn beside far-future events: node slots
    // (calendar) and heap entries must be recycled, so neither
    // footprint tracks the total number of operations.
    for (int i = 0; i < 32; ++i)
        queue_.schedule(1'000'000 + i, [] {}, kPriStats);
    for (int round = 0; round < 2000; ++round) {
        queue_.scheduleIn(1, [] {});
        ASSERT_TRUE(queue_.runOne());
    }
    // 32 live events after 2000 churn rounds: capacity must reflect the
    // high-water mark (a few dozen slots), not the operation count.
    EXPECT_EQ(queue_.numPending(), 32u);
    EXPECT_EQ(queue_.now(), 2000);
    EXPECT_LE(queue_.nodeCapacity(), 256u);
    EXPECT_EQ(queue_.run(), 32u);
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
 * High-churn random schedule/run fuzz pushed through both policies in
 * lock-step, asserting identical execution order, now() trajectory,
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
        std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
        const auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            return rng;
        };
        for (int op = 0; op < kOps; ++op) {
            const std::uint64_t roll = next() % 100;
            if (roll < 55) {
                const Tick delay = static_cast<Tick>(next() % 64);
                const int pri = priorities[next() % 6];
                q.scheduleIn(
                    delay,
                    [&log, &q, op] { log.emplace_back(op, q.now()); },
                    pri);
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
        q.scheduleIn(
            delay,
            [this, op] {
                log.emplace_back(op, q.now());
                if (op % 4 == 0)
                    arm(op, kPriorities[(op / 4) % 6]);
            },
            priority);
    }
};

/**
 * The same-tick slot is exactly the event it stands for: random
 * schedules at every priority and slot arms (from the top level, from
 * events and from the slot itself) pushed through a queue
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

/**
 * One side of the timer-slot differential: a queue that arms its timer
 * slots (slots = true) or the reference that schedules each timer call
 * as an event at (now + delay, priority) (slots = false). Both arm the
 * same-tick slot alike, as the bus does for its pass starts.
 */
struct TimerSlotHarness
{
    /** What a timer slot's function gets: its harness and its index. */
    struct Timer
    {
        TimerSlotHarness *owner;
        std::size_t index;
        bool armed = false;
        int op = 0;
    };

    /** One step's view of the queue. */
    struct Step
    {
        Tick now;
        std::size_t pending;
        std::uint64_t executed;
        bool operator==(const Step &) const = default;
    };

    EventQueue q;
    bool slots;
    std::vector<std::pair<int, Tick>> log;
    std::vector<Step> steps;
    std::array<Timer, EventQueue::kTimerSlots> timers;
    bool sameTickArmed = false;
    int sameTickOp = 0;
    std::uint64_t timerRuns = 0;
    std::uint64_t sameTickRuns = 0;

    static constexpr int kPriorities[] = {
        kPriTransactionEnd, kPriArbitration, kPriRequestArrival,
        kPriBeginPass,      kPriDefault,     kPriStats};

    TimerSlotHarness(EventQueuePolicy policy, bool use_slots)
        : q(policy), slots(use_slots)
    {
        for (std::size_t t = 0; t < timers.size(); ++t)
            timers[t] = Timer{this, t};
    }

    /** Arm timer `t` for `op` at `delay`, unless it is armed. */
    void
    timer(std::size_t t, int op, Tick delay, int priority)
    {
        Timer &timer = timers[t];
        if (timer.armed)
            return;
        timer.armed = true;
        timer.op = op;
        if (slots) {
            q.armTimer(
                t, delay,
                [](void *self) {
                    const auto *slot = static_cast<const Timer *>(self);
                    slot->owner->fireTimer(slot->index);
                },
                &timer, priority);
        } else {
            q.scheduleIn(delay, [this, t] { fireTimer(t); }, priority);
        }
    }

    /** A timer's call: logs itself; some re-arm their own timer (as a
     *  tenure end starts the next tenure), arm the other one, arm the
     *  same-tick slot or schedule an event. Each derived op fails the
     *  test that made it, so no chain runs on without end. */
    void
    fireTimer(std::size_t t)
    {
        timers[t].armed = false;
        ++timerRuns;
        const int op = timers[t].op;
        log.emplace_back(-1000000 * static_cast<int>(t + 1) - op, q.now());
        if (op % 3 == 0)
            timer(t, op + 300001, op % 4, kPriorities[op % 6]);
        if (op % 5 == 0)
            timer((t + 1) % timers.size(), op + 400001, (op / 5) % 4,
                  kPriorities[(op / 5) % 6]);
        if (op % 4 == 0)
            sameTick(op + 500001, kPriorities[(op / 4) % 6]);
        if (op % 7 == 0)
            event(op + 600001, op % 4, kPriorities[(op / 7) % 6]);
    }

    /** Arm the same-tick slot for `op`, unless it is armed. */
    void
    sameTick(int op, int priority)
    {
        if (sameTickArmed)
            return;
        sameTickArmed = true;
        sameTickOp = op;
        q.armSameTick(
            [](void *self) {
                static_cast<TimerSlotHarness *>(self)->fireSameTick();
            },
            this, priority);
    }

    /** The same-tick call: some arm a timer, as a pass start arms its
     *  pass end. */
    void
    fireSameTick()
    {
        sameTickArmed = false;
        ++sameTickRuns;
        const int op = sameTickOp;
        log.emplace_back(-1 - op, q.now());
        if (op % 2 == 0)
            timer(0, op + 700001, op % 4, kPriorities[op % 6]);
    }

    /** An ordinary event; some arm a slot when they run. */
    void
    event(int op, Tick delay, int priority)
    {
        q.scheduleIn(
            delay,
            [this, op] {
                log.emplace_back(op, q.now());
                if (op % 4 == 0)
                    sameTick(op + 800001, kPriorities[(op / 4) % 6]);
                if (op % 6 == 1)
                    timer(1, op + 900001, op % 4, kPriorities[op % 6]);
            },
            priority);
    }

    void
    record()
    {
        steps.push_back(Step{q.now(), q.numPending(), q.numExecuted()});
    }
};

/**
 * A timer slot is exactly the event it stands for, in order and in
 * every count: random schedules at every priority, same-tick arms and
 * timer arms at delays 0-3 (from the top level, from events and from
 * the slots themselves) pushed through a queue that arms its timer
 * slots and a reference of the same policy that schedules each timer
 * call as an event at (now + delay, priority). Execution order, and
 * after each step now(), numPending() and numExecuted(), must match,
 * and so must the depth profile.
 */
class TimerSlotDifferentialTest
    : public ::testing::TestWithParam<EventQueuePolicy>
{
};

TEST_P(TimerSlotDifferentialTest, TimerRunsAndCountsAsItsEvent)
{
    constexpr int kOps = 8000;
    const auto drive = [](TimerSlotHarness &d) {
        std::uint64_t rng = 0x853c49e6748fea9bULL;
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
            const int pri = TimerSlotHarness::kPriorities[next() % 6];
            if (roll < 30) {
                d.event(op, delay, pri);
            } else if (roll < 38) {
                d.sameTick(op, pri);
            } else if (roll < 52) {
                d.timer(next() % EventQueue::kTimerSlots, op, delay, pri);
            } else {
                d.q.runOne();
            }
            d.record();
        }
        d.q.run();
        d.record();
    };

    TimerSlotHarness slots(GetParam(), true);
    TimerSlotHarness reference(GetParam(), false);
    drive(slots);
    drive(reference);
    EXPECT_EQ(slots.log, reference.log);
    EXPECT_EQ(slots.steps, reference.steps);
    EXPECT_EQ(slots.q.numExecuted(), reference.q.numExecuted());
    EXPECT_EQ(slots.q.profileDepthHistogram(),
              reference.q.profileDepthHistogram());
    EXPECT_EQ(slots.q.profileMaxDepth(), reference.q.profileMaxDepth());
    EXPECT_EQ(slots.timerRuns, reference.timerRuns);
    EXPECT_EQ(slots.sameTickRuns, reference.sameTickRuns);
    EXPECT_TRUE(slots.q.empty());
    EXPECT_GT(slots.timerRuns, 400u);
    EXPECT_GT(slots.sameTickRuns, 400u);
    EXPECT_GT(slots.q.numExecuted(), 2000u);
}

INSTANTIATE_TEST_SUITE_P(
    BothPolicies, TimerSlotDifferentialTest,
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
