/**
 * @file
 * Unit and property tests for the bit-level parallel contention
 * arbiter, run on ArbitrationPass: settle() for the Section 2.1
 * remove/re-apply process and winner() for the maximum word.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bus/arbitration_pass.hh"
#include "random/rng.hh"
#include "support/settle_oracle.hh"

namespace busarb {
namespace {

using test::Competitor;
using test::loadPass;

std::vector<Competitor>
makeCompetitors(const std::vector<std::uint64_t> &words)
{
    std::vector<Competitor> cs;
    AgentId id = 1;
    for (auto w : words)
        cs.push_back(Competitor{id++, w});
    return cs;
}

TEST(LinesForAgentsTest, MatchesCeilLog2NPlusOne)
{
    EXPECT_EQ(linesForAgents(1), 1);
    EXPECT_EQ(linesForAgents(3), 2);
    EXPECT_EQ(linesForAgents(7), 3);
    EXPECT_EQ(linesForAgents(8), 4);   // identity 0 reserved
    EXPECT_EQ(linesForAgents(10), 4);
    EXPECT_EQ(linesForAgents(30), 5);
    EXPECT_EQ(linesForAgents(63), 6);  // Futurebus: k = 6
    EXPECT_EQ(linesForAgents(64), 7);
}

TEST(SettleTest, EmptyCompetitionSettlesToZero)
{
    const auto result = loadPass(4, {}).settle();
    EXPECT_EQ(result.settledWord, 0u);
    EXPECT_EQ(result.winner, kNoAgent);
    EXPECT_EQ(result.rounds, 0);
}

TEST(SettleTest, SingleCompetitorWinsImmediately)
{
    const auto result = loadPass(4, makeCompetitors({0b1010})).settle();
    EXPECT_EQ(result.settledWord, 0b1010u);
    EXPECT_EQ(result.winner, 1);
    EXPECT_EQ(result.rounds, 0); // nothing to remove
}

TEST(SettleTest, PaperWorkedExample)
{
    // Section 2.1: agents 1010101 and 0011100. The first removes its
    // three lowest bits then re-applies them; the second removes all.
    const auto result =
        loadPass(7, makeCompetitors({0b1010101, 0b0011100})).settle();
    EXPECT_EQ(result.settledWord, 0b1010101u);
    EXPECT_EQ(result.winner, 1);
    EXPECT_GE(result.rounds, 1);
}

TEST(SettleTest, DominatedWordNeedsNoRounds)
{
    // 0b1100 vs 0b1000: the loser's bits are a subset of the winner's
    // pattern conflicts... check the lines still settle to the max.
    const auto result =
        loadPass(4, makeCompetitors({0b1100, 0b1000})).settle();
    EXPECT_EQ(result.settledWord, 0b1100u);
    EXPECT_EQ(result.winner, 1);
}

TEST(SettleTest, WorstCaseStaircaseRespectsLinearBound)
{
    // The classic slow case: words 1000..., 0100..., 0010..., each agent
    // keeps re-applying as higher conflicts resolve.
    const int k = 8;
    std::vector<std::uint64_t> words;
    for (int i = 0; i < k; ++i) {
        std::uint64_t w = 1ULL << (k - 1 - i);
        // Fill lower bits to force repeated remove/re-apply.
        w |= (w >> 1) == 0 ? 0 : ((w >> 1) - 1);
        if (w == 0)
            w = 1;
        words.push_back(w);
    }
    const auto result = loadPass(k, makeCompetitors(words)).settle();
    std::uint64_t expected = *std::max_element(words.begin(), words.end());
    EXPECT_EQ(result.settledWord, expected);
    // Synchronous-round model: the process must converge within ~k
    // rounds (Taub's k/2 bound is for the asynchronous ripple model;
    // one synchronous round can take two ripple steps).
    EXPECT_LE(result.rounds, k);
}

class SettlePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SettlePropertyTest, SettlesToMaximumForRandomSubsets)
{
    const int k = GetParam();
    Rng rng(static_cast<std::uint64_t>(k) * 7919);
    const std::uint64_t limit = (k >= 63) ? ~0ULL : (1ULL << k) - 1;
    // Never ask for more distinct words than the line width can encode.
    const int max_n =
        static_cast<int>(std::min<std::uint64_t>(16, limit));
    for (int trial = 0; trial < 200; ++trial) {
        const int n =
            1 + static_cast<int>(rng.below(
                    static_cast<std::uint64_t>(max_n)));
        std::vector<Competitor> cs;
        std::vector<std::uint64_t> used;
        for (int i = 0; i < n; ++i) {
            std::uint64_t w;
            do {
                w = 1 + rng.below(limit);
            } while (std::find(used.begin(), used.end(), w) != used.end());
            used.push_back(w);
            cs.push_back(Competitor{static_cast<AgentId>(i + 1), w});
        }
        const auto result = loadPass(k, cs).settle();
        EXPECT_EQ(result.settledWord,
                  *std::max_element(used.begin(), used.end()));
        EXPECT_LE(result.rounds, k + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(LineWidths, SettlePropertyTest,
                         ::testing::Values(3, 4, 5, 6, 7, 10, 16, 24));

TEST(SettleTest, TypicalRoundsAreNearHalfK)
{
    // Sanity for the timing claim: across random contests the average
    // settle round count should be well below the worst case.
    const int k = 10;
    Rng rng(4242);
    double total_rounds = 0;
    const int trials = 500;
    for (int t = 0; t < trials; ++t) {
        std::vector<Competitor> cs;
        std::vector<std::uint64_t> used;
        for (int i = 0; i < 8; ++i) {
            std::uint64_t w;
            do {
                w = 1 + rng.below((1ULL << k) - 1);
            } while (std::find(used.begin(), used.end(), w) != used.end());
            used.push_back(w);
            cs.push_back(Competitor{static_cast<AgentId>(i + 1), w});
        }
        total_rounds += loadPass(k, cs).settle().rounds;
    }
    EXPECT_LT(total_rounds / trials, k / 2.0 + 1.0);
}

TEST(SelectMaxTest, PicksLargestWord)
{
    EXPECT_EQ(loadPass(4, makeCompetitors({5, 9, 3})).winner(), 2);
    EXPECT_EQ(loadPass(4, makeCompetitors({7})).winner(), 1);
    EXPECT_EQ(loadPass(4, {}).winner(), kNoAgent);
}

TEST(SelectMaxTest, AgreesWithSettleOnRandomInputs)
{
    Rng rng(777);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<Competitor> cs;
        std::vector<std::uint64_t> used;
        const int n = 1 + static_cast<int>(rng.below(10));
        for (int i = 0; i < n; ++i) {
            std::uint64_t w;
            do {
                w = 1 + rng.below((1ULL << 12) - 1);
            } while (std::find(used.begin(), used.end(), w) != used.end());
            used.push_back(w);
            cs.push_back(Competitor{static_cast<AgentId>(i + 1), w});
        }
        const ArbitrationPass pass = loadPass(12, cs);
        EXPECT_EQ(pass.winner(), pass.settle().winner);
    }
}

TEST(SelectMaxDeathTest, DuplicateMaximalWordsPanic)
{
    const ArbitrationPass pass = loadPass(3, {{1, 7}, {2, 7}});
    EXPECT_DEATH(pass.winner(), "duplicate arbitration word");
}

TEST(SettleDeathTest, InvalidInputs)
{
    EXPECT_DEATH(loadPass(0, {}), "out of range");
    EXPECT_DEATH(loadPass(3, makeCompetitors({0b1000})), "does not fit");
    EXPECT_DEATH(loadPass(3, makeCompetitors({0})), "reserved word 0");
    EXPECT_DEATH(loadPass(3, {{2, 5}, {2, 6}}), "competes twice");
}

} // namespace
} // namespace busarb
