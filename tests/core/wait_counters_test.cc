/**
 * @file
 * Bit-sliced waiting-time counters against one scalar counter per
 * agent.
 */

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/wait_counters.hh"
#include "random/rng.hh"

namespace busarb {
namespace {

/** One scalar counter per agent, with the protocols' overflow rule. */
struct ScalarCounters
{
    std::uint64_t max;
    OverflowPolicy policy;
    std::vector<std::uint64_t> raw; // index by agent id
    std::uint64_t overflows = 0;

    void
    bump(std::size_t agent)
    {
        if (++raw[agent] == max + 1)
            ++overflows;
    }

    std::uint64_t
    value(std::size_t agent) const
    {
        const std::uint64_t r = raw[agent];
        if (r <= max)
            return r;
        return policy == OverflowPolicy::kSaturate ? max : (r & max);
    }
};

TEST(WaitCountersTest, RandomIncrementsMatchScalarCounters)
{
    Rng rng(0xC0117);
    for (int width = 1; width <= 32; ++width) {
        for (auto policy :
             {OverflowPolicy::kSaturate, OverflowPolicy::kWrap}) {
            for (int agents : {1, 63, 64, 65, 130, 300}) {
                WaitCounters counters;
                counters.reset(agents, width, policy);
                ASSERT_EQ(counters.numWords(),
                          (static_cast<std::size_t>(agents) + 64) / 64);
                ScalarCounters want{
                    (1ULL << width) - 1, policy,
                    std::vector<std::uint64_t>(
                        static_cast<std::size_t>(agents) + 1, 0)};
                // Wide counters start near their maximum so that they
                // carry out too.
                const std::uint64_t start =
                    width > 6 ? want.max - 40 : 0;
                for (AgentId a = 1; a <= agents; ++a) {
                    counters.set(a, start);
                    want.raw[static_cast<std::size_t>(a)] = start;
                }
                std::uint64_t overflows = 0;
                for (int step = 0; step < 60; ++step) {
                    // A fresh request now and then.
                    if (rng.below(4) == 0) {
                        const auto a = static_cast<AgentId>(
                            1 + rng.below(
                                    static_cast<std::uint64_t>(agents)));
                        const std::uint64_t raw =
                            start + rng.below(2 * (want.max - start) + 2);
                        counters.set(a, raw);
                        want.raw[static_cast<std::size_t>(a)] = raw;
                    }
                    const std::uint64_t density = rng.below(4);
                    for (std::size_t w = 0; w < counters.numWords();
                         ++w) {
                        std::uint64_t mask = rng.next();
                        for (std::uint64_t i = 0; i < density; ++i)
                            mask &= rng.next(); // sparser masks
                        if (w == 0)
                            mask &= ~1ULL; // agent 0 does not exist
                        const std::size_t hi =
                            static_cast<std::size_t>(agents) + 1 - w * 64;
                        if (hi < 64)
                            mask &= (1ULL << hi) - 1;
                        overflows += static_cast<std::uint64_t>(
                            counters.increment(w, mask));
                        for (std::uint64_t m = mask; m != 0; m &= m - 1) {
                            want.bump(w * 64 + static_cast<std::size_t>(
                                                   std::countr_zero(m)));
                        }
                    }
                    for (AgentId a = 1; a <= agents; ++a) {
                        ASSERT_EQ(counters.value(a),
                                  want.value(static_cast<std::size_t>(a)))
                            << "width " << width << " agents " << agents
                            << " agent " << a << " step " << step;
                    }
                    ASSERT_EQ(overflows, want.overflows)
                        << "width " << width << " agents " << agents
                        << " step " << step;
                }
            }
        }
    }
}

TEST(WaitCountersTest, PlanesAreTheCounterBitsByAgent)
{
    WaitCounters counters;
    counters.reset(70, 3, OverflowPolicy::kSaturate);
    counters.set(1, 5);  // 101
    counters.set(66, 6); // 110
    EXPECT_EQ(counters.plane(0, 0), 1ULL << 1);
    EXPECT_EQ(counters.plane(1, 0), 0u);
    EXPECT_EQ(counters.plane(2, 0), 1ULL << 1);
    EXPECT_EQ(counters.plane(0, 1), 0u);
    EXPECT_EQ(counters.plane(1, 1), 1ULL << 2);
    EXPECT_EQ(counters.plane(2, 1), 1ULL << 2);
}

TEST(WaitCountersTest, ALoadedOverflowIsNotCountedAgain)
{
    // A request that overflowed behind its agent's oldest keeps its
    // count when it moves onto the planes.
    WaitCounters counters;
    counters.reset(4, 2, OverflowPolicy::kSaturate);
    counters.set(2, 9);
    EXPECT_EQ(counters.value(2), 3u);
    EXPECT_EQ(counters.increment(0, 1ULL << 2), 0);
    counters.set(2, 3);
    EXPECT_EQ(counters.increment(0, 1ULL << 2), 1);
    EXPECT_EQ(counters.increment(0, 1ULL << 2), 0);

    WaitCounters wrap;
    wrap.reset(4, 2, OverflowPolicy::kWrap);
    wrap.set(3, 6);
    EXPECT_EQ(wrap.value(3), 2u);
    EXPECT_EQ(wrap.increment(0, 1ULL << 3), 0);
    EXPECT_EQ(wrap.increment(0, 1ULL << 3), 0); // 3 -> 0: seen before
    EXPECT_EQ(wrap.value(3), 0u);
}

} // namespace
} // namespace busarb
