/**
 * @file
 * Differential tests of the word-parallel ArbitrationPass against the
 * per-agent settle oracle: rounds, settled word and winner must agree
 * on every competitor set, in every line layout the protocols build.
 */

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "bus/arbitration_pass.hh"
#include "random/rng.hh"
#include "support/settle_oracle.hh"

namespace busarb {
namespace {

using test::Competitor;

/** @return `count` distinct agent ids in [1, max_id], in random order. */
std::vector<AgentId>
distinctAgents(Rng &rng, int count, int max_id)
{
    // Bias towards the mask-word boundaries so sets straddle them.
    static const AgentId kEdges[] = {1, 62, 63, 64, 65, 127, 128, 129};
    std::vector<AgentId> ids;
    while (static_cast<int>(ids.size()) < count) {
        AgentId a;
        if (rng.below(3) == 0) {
            a = kEdges[rng.below(std::size(kEdges))];
            if (a > max_id)
                continue;
        } else {
            a = 1 + static_cast<AgentId>(
                        rng.below(static_cast<std::uint64_t>(max_id)));
        }
        if (std::find(ids.begin(), ids.end(), a) == ids.end())
            ids.push_back(a);
    }
    return ids;
}

TEST(ArbitrationPassDifferentialTest, EverySubsetOfWordsUpToFourLines)
{
    // Every non-empty set of distinct non-zero words on k <= 4 lines,
    // placed once on agents 1..15 and once across the 63/64 boundary.
    for (int k = 1; k <= 4; ++k) {
        const int num_words = (1 << k) - 1;
        for (int offset : {0, 55}) {
            for (std::uint32_t subset = 1; subset < (1U << num_words);
                 ++subset) {
                std::vector<Competitor> cs;
                for (int w = 1; w <= num_words; ++w) {
                    if (((subset >> (w - 1)) & 1U) != 0) {
                        cs.push_back(Competitor{
                            static_cast<AgentId>(w + offset),
                            static_cast<std::uint64_t>(w)});
                    }
                }
                const ArbitrationPass pass = test::loadPass(k, cs);
                const SettleResult want = test::oracleSettle(k, cs);
                const SettleResult got = pass.settle();
                ASSERT_EQ(got.rounds, want.rounds)
                    << "k=" << k << " subset=" << subset;
                ASSERT_EQ(got.settledWord, want.settledWord);
                ASSERT_EQ(got.winner, want.winner);
                ASSERT_EQ(pass.winner(), want.winner);
            }
        }
    }
}

TEST(ArbitrationPassDifferentialTest, RandomSetsUpToTwentyLines)
{
    Rng rng(20260);
    for (int k = 5; k <= 20; ++k) {
        const std::uint64_t limit = (1ULL << k) - 1;
        for (int trial = 0; trial < 300; ++trial) {
            const int n = 1 + static_cast<int>(rng.below(
                                  std::min<std::uint64_t>(70, limit)));
            const std::vector<AgentId> ids = distinctAgents(rng, n, 300);
            std::vector<Competitor> cs;
            std::vector<std::uint64_t> used;
            for (AgentId id : ids) {
                std::uint64_t w;
                do {
                    w = 1 + rng.below(limit);
                } while (std::find(used.begin(), used.end(), w) !=
                         used.end());
                used.push_back(w);
                cs.push_back(Competitor{id, w});
            }
            const SettleResult want = test::oracleSettle(k, cs);
            const SettleResult got = test::loadPass(k, cs).settle();
            ASSERT_EQ(got.rounds, want.rounds) << "k=" << k;
            ASSERT_EQ(got.settledWord, want.settledWord);
            ASSERT_EQ(got.winner, want.winner);
        }
    }
}

/** One agent's dynamic fields in a protocol line layout. */
struct Fields
{
    bool priority = false;
    bool rrBit = false;
    bool claim = false;
    std::uint32_t counter = 0;
};

/**
 * Builds passes the way the protocols do — identity lines from reset(),
 * dynamic lines by drive(), the counter one line per bit — and checks
 * them against the oracle run on the composed words.
 */
class LayoutCheck
{
  public:
    /**
     * Layout, most significant first:
     * [ priority | claim | counter (counter_bits) | rr | identity ],
     * each part present when its width is non-zero.
     */
    LayoutCheck(int agents, bool priority, bool claim, int counter_bits,
                bool rr)
        : agents_(agents), idBits_(linesForAgents(agents)),
          rrLine_(idBits_), counterLine_(idBits_ + (rr ? 1 : 0)),
          counterBits_(counter_bits),
          claimLine_(counterLine_ + counter_bits),
          priorityLine_(claimLine_ + (claim ? 1 : 0)), rr_(rr),
          claim_(claim), priority_(priority),
          lines_(priorityLine_ + (priority ? 1 : 0))
    {
        pass_.reset(agents, lines_, idBits_);
    }

    void
    check(Rng &rng, int trials)
    {
        for (int t = 0; t < trials; ++t) {
            const int n = 1 + static_cast<int>(rng.below(
                                  static_cast<std::uint64_t>(agents_)));
            const std::vector<AgentId> ids =
                distinctAgents(rng, n, agents_);
            pass_.clear();
            std::vector<Competitor> cs;
            for (AgentId a : ids) {
                Fields f;
                f.priority = priority_ && rng.below(4) == 0;
                f.rrBit = rr_ && rng.below(2) == 0;
                f.claim = claim_ && rng.below(16) == 0;
                if (counterBits_ > 0) {
                    f.counter = static_cast<std::uint32_t>(
                        rng.below(1ULL << counterBits_));
                }
                pass_.addCompetitor(a);
                if (f.priority)
                    pass_.drive(priorityLine_, a);
                if (f.claim)
                    pass_.drive(claimLine_, a);
                if (f.rrBit)
                    pass_.drive(rrLine_, a);
                for (int b = 0; b < counterBits_; ++b) {
                    if (((f.counter >> b) & 1U) != 0)
                        pass_.drive(counterLine_ + b, a);
                }
                cs.push_back(Competitor{a, wordOf(a, f)});
            }
            for (const Competitor &c : cs)
                ASSERT_EQ(linesOf(c.agent), c.word);
            const SettleResult want = test::oracleSettle(lines_, cs);
            const SettleResult got = pass_.settle();
            ASSERT_EQ(got.rounds, want.rounds)
                << lines_ << " lines, " << cs.size() << " competitors";
            ASSERT_EQ(got.settledWord, want.settledWord);
            ASSERT_EQ(got.winner, want.winner);
            ASSERT_EQ(pass_.winner(), want.winner);
        }
    }

  private:
    /** @return The word `a` drives, read back line by line. */
    std::uint64_t
    linesOf(AgentId a) const
    {
        std::uint64_t word = 0;
        for (int j = 0; j < lines_; ++j) {
            if (pass_.drives(j, a))
                word |= 1ULL << j;
        }
        return word;
    }

    std::uint64_t
    wordOf(AgentId a, const Fields &f) const
    {
        std::uint64_t word = static_cast<std::uint64_t>(a);
        if (f.rrBit)
            word |= 1ULL << rrLine_;
        word |= static_cast<std::uint64_t>(f.counter) << counterLine_;
        if (f.claim)
            word |= 1ULL << claimLine_;
        if (f.priority)
            word |= 1ULL << priorityLine_;
        return word;
    }

    int agents_;
    int idBits_;
    int rrLine_;
    int counterLine_;
    int counterBits_;
    int claimLine_;
    int priorityLine_;
    bool rr_;
    bool claim_;
    bool priority_;
    int lines_;
    ArbitrationPass pass_;
};

TEST(ArbitrationPassDifferentialTest, PriorityLayouts)
{
    Rng rng(41);
    for (int agents : {5, 10, 63, 64, 65, 130, 300}) {
        LayoutCheck(agents, true, false, 0, false).check(rng, 200); // fixed
        LayoutCheck(agents, true, false, 0, true).check(rng, 200); // rr1
    }
}

TEST(ArbitrationPassDifferentialTest, WrrClaimLayout)
{
    Rng rng(42);
    for (int agents : {5, 10, 64, 100, 300})
        LayoutCheck(agents, false, true, 0, true).check(rng, 200);
}

TEST(ArbitrationPassDifferentialTest, FcfsAndHybridCounterLayouts)
{
    // Counter widths from 1 to 12 lines, with and without the priority
    // line (FCFS) and the RR tie-break bit (hybrid).
    Rng rng(43);
    for (int agents : {5, 10, 64, 100, 300}) {
        for (int bits : {1, 3, 7, 9, 12}) {
            LayoutCheck(agents, false, false, bits, false).check(rng, 60);
            LayoutCheck(agents, true, false, bits, false).check(rng, 60);
            LayoutCheck(agents, false, false, bits, true).check(rng, 60);
        }
    }
}

TEST(ArbitrationPassTest, AgentsBelowWordSplitsAtTheLimit)
{
    EXPECT_EQ(agentsBelowWord(0, 0), 0u);
    EXPECT_EQ(agentsBelowWord(5, 0), 0x1Fu);
    EXPECT_EQ(agentsBelowWord(64, 0), ~0ULL);
    EXPECT_EQ(agentsBelowWord(64, 1), 0u);
    EXPECT_EQ(agentsBelowWord(66, 1), 0x3u);
    EXPECT_EQ(agentsBelowWord(200, 1), ~0ULL);
}

TEST(ArbitrationPassTest, EmptyPassHasNoWinner)
{
    ArbitrationPass pass;
    pass.reset(70, 8, linesForAgents(70));
    EXPECT_TRUE(pass.empty());
    EXPECT_EQ(pass.winner(), kNoAgent);
    const SettleResult r = pass.settle();
    EXPECT_EQ(r.winner, kNoAgent);
    EXPECT_EQ(r.settledWord, 0u);
    EXPECT_EQ(r.rounds, 0);
}

TEST(ArbitrationPassDeathTest, MisuseIsCaught)
{
    ArbitrationPass pass;
    pass.reset(4, 3, 0);
    pass.addCompetitor(1);
    pass.addCompetitor(2);
    pass.drive(0, 1);
    pass.drive(0, 2);
    EXPECT_DEATH(pass.winner(), "duplicate arbitration word");

    ArbitrationPass layered;
    layered.reset(10, 5, linesForAgents(10));
    EXPECT_DEATH(layered.drive(0, 3), "not a dynamic line");
    EXPECT_DEATH(layered.addCompetitor(11), "out of range");
}

} // namespace
} // namespace busarb
