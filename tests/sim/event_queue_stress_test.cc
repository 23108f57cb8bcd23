/**
 * @file
 * Randomized stress test: the event queue against a naive reference
 * model (sorted vector), with interleaved schedule / run operations.
 */

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.hh"
#include "sim/event_queue.hh"

namespace busarb {
namespace {

/** Reference model: (tick, priority, id) triples, executed in order. */
struct ReferenceModel
{
    // (tick, priority, schedule sequence); live entries only.
    std::vector<std::tuple<Tick, int, std::uint64_t>> live;

    void
    schedule(Tick when, int priority, std::uint64_t id)
    {
        live.emplace_back(when, priority, id);
    }

    /** Pop the earliest (tick, priority, id) entry. */
    std::uint64_t
    popNext()
    {
        auto best = live.begin();
        for (auto it = live.begin(); it != live.end(); ++it) {
            if (*it < *best)
                best = it;
        }
        const std::uint64_t id = std::get<2>(*best);
        live.erase(best);
        return id;
    }
};

TEST(EventQueueStressTest, MatchesReferenceModelUnderRandomOps)
{
    Rng rng(0xabcdef);
    for (int trial = 0; trial < 10; ++trial) {
        EventQueue queue;
        ReferenceModel reference;
        std::vector<std::uint64_t> actual;   // queue's execution order
        std::vector<std::uint64_t> expected; // reference's order
        std::uint64_t next_id = 0; // the queue's insertion sequence

        for (int step = 0; step < 400; ++step) {
            const auto op = rng.below(10);
            if (op < 6) {
                // Schedule at now + random delay with random priority.
                const Tick when = queue.now() +
                                  static_cast<Tick>(rng.below(50));
                const int priority = static_cast<int>(rng.below(4)) * 10;
                const std::uint64_t id = next_id++;
                queue.schedule(
                    when,
                    [id, &actual, &expected, &reference] {
                        actual.push_back(id);
                        expected.push_back(reference.popNext());
                    },
                    priority);
                reference.schedule(when, priority, id);
            } else {
                // Run a few events.
                for (int i = 0; i < 3; ++i) {
                    if (!queue.runOne())
                        break;
                }
            }
            ASSERT_EQ(queue.numPending(), reference.live.size());
        }
        queue.run();
        EXPECT_TRUE(reference.live.empty());
        EXPECT_EQ(actual, expected) << "trial " << trial;
        EXPECT_EQ(actual.size(), queue.numExecuted());
    }
}

TEST(EventQueueStressTest, OrderIsIndependentOfInsertionOrder)
{
    // Insert the same logical events in shuffled order; the execution
    // sequence of (tick, priority) pairs must be sorted regardless.
    Rng rng(555);
    std::vector<std::pair<Tick, int>> events;
    for (int i = 0; i < 200; ++i) {
        events.emplace_back(static_cast<Tick>(rng.below(40)),
                            static_cast<int>(rng.below(3)) * 10);
    }
    for (int trial = 0; trial < 5; ++trial) {
        auto shuffled = events;
        for (std::size_t i = shuffled.size() - 1; i > 0; --i)
            std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
        EventQueue queue;
        std::vector<std::pair<Tick, int>> order;
        for (const auto &[when, priority] : shuffled) {
            queue.schedule(when,
                           [&order, when = when, priority = priority] {
                               order.emplace_back(when, priority);
                           },
                           priority);
        }
        queue.run();
        ASSERT_EQ(order.size(), events.size());
        EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
    }
}

} // namespace
} // namespace busarb
