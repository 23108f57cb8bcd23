/**
 * @file
 * Tests for the asynchronous, placement-aware contention arbiter.
 */

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "random/rng.hh"
#include "support/async_contention.hh"
#include "support/settle_oracle.hh"

namespace busarb {
namespace {

TEST(AsyncSettleTest, EmptyAndSingleCompetitor)
{
    AsyncSettleModel arb(4);
    EXPECT_EQ(arb.settle({}).winner, kNoAgent);
    const auto result =
        arb.settle({PlacedCompetitor{3, 0b1010, 0.5}});
    EXPECT_EQ(result.winner, 3);
    EXPECT_EQ(result.settledWord, 0b1010u);
    EXPECT_DOUBLE_EQ(result.settleTime, 0.0);
    EXPECT_EQ(result.transitions, 0);
}

TEST(AsyncSettleTest, PaperExampleSettlesToMax)
{
    AsyncSettleModel arb(7);
    const auto result = arb.settle({
        PlacedCompetitor{1, 0b1010101, 0.0},
        PlacedCompetitor{2, 0b0011100, 1.0},
    });
    EXPECT_EQ(result.winner, 1);
    EXPECT_EQ(result.settledWord, 0b1010101u);
    EXPECT_GT(result.transitions, 0);
}

TEST(AsyncSettleTest, RemoveReapplyRoundTripCostsTwoPropagations)
{
    // A = 101 at one end, B = 011 at the other: A transiently removes
    // bit 0 (B's middle bit conflicts) and re-applies it only after
    // B's removal crosses the bus: settle time 2 end-to-end delays.
    AsyncSettleModel arb(3);
    const auto result = arb.settle({
        PlacedCompetitor{1, 0b101, 0.0},
        PlacedCompetitor{2, 0b011, 1.0},
    });
    EXPECT_EQ(result.winner, 1);
    EXPECT_NEAR(result.settleTime, 2.0, 1e-9);
}

TEST(AsyncSettleTest, CoLocatedAgentsSettleInstantly)
{
    // Zero distance: reactions are immediate, no transient is visible.
    AsyncSettleModel arb(3);
    const auto result = arb.settle({
        PlacedCompetitor{1, 0b101, 0.4},
        PlacedCompetitor{2, 0b011, 0.4},
    });
    EXPECT_EQ(result.winner, 1);
    EXPECT_NEAR(result.settleTime, 0.0, 1e-9);
}

TEST(AsyncSettleTest, SettleTimeScalesWithDistance)
{
    AsyncSettleModel arb(3);
    for (double span : {0.1, 0.5, 1.0}) {
        const auto result = arb.settle({
            PlacedCompetitor{1, 0b101, 0.0},
            PlacedCompetitor{2, 0b011, span},
        });
        EXPECT_NEAR(result.settleTime, 2.0 * span, 1e-9) << span;
    }
}

TEST(AsyncSettleTest, AgreesWithSynchronousModelOnWinner)
{
    Rng rng(0xa57c);
    const int k = 8;
    AsyncSettleModel async_arb(k);
    for (int trial = 0; trial < 120; ++trial) {
        const int n = 2 + static_cast<int>(rng.below(6));
        std::vector<PlacedCompetitor> placed;
        std::vector<test::Competitor> plain;
        std::vector<std::uint64_t> used;
        for (int i = 0; i < n; ++i) {
            std::uint64_t w;
            do {
                w = 1 + rng.below((1ULL << k) - 1);
            } while (std::find(used.begin(), used.end(), w) !=
                     used.end());
            used.push_back(w);
            const double pos = rng.uniform();
            placed.push_back(
                PlacedCompetitor{static_cast<AgentId>(i + 1), w, pos});
            plain.push_back(
                test::Competitor{static_cast<AgentId>(i + 1), w});
        }
        const auto async_result = async_arb.settle(placed);
        const auto sync_result = test::loadPass(k, plain).settle();
        ASSERT_EQ(async_result.winner, sync_result.winner)
            << "trial " << trial;
        ASSERT_EQ(async_result.settledWord, sync_result.settledWord);
    }
}

TEST(AsyncSettleTest, SettleTimeBoundedByTaubEnvelope)
{
    // With instantaneous agent logic most contests settle within one
    // remove / re-apply round trip (~2 end-to-end delays); chained
    // transients across intermediate positions can push slightly past
    // that, but everything stays inside Taub's k/2-style envelope.
    Rng rng(0x7A0B);
    for (int k : {4, 6, 8, 12}) {
        AsyncSettleModel arb(k);
        double worst = 0.0;
        for (int trial = 0; trial < 80; ++trial) {
            const int n = 2 + static_cast<int>(rng.below(6));
            std::vector<PlacedCompetitor> placed;
            std::vector<std::uint64_t> used;
            for (int i = 0; i < n; ++i) {
                std::uint64_t w;
                do {
                    w = 1 + rng.below((1ULL << k) - 1);
                } while (std::find(used.begin(), used.end(), w) !=
                         used.end());
                used.push_back(w);
                placed.push_back(PlacedCompetitor{
                    static_cast<AgentId>(i + 1), w, rng.uniform()});
            }
            worst = std::max(worst, arb.settle(placed).settleTime);
        }
        EXPECT_LE(worst, k / 2.0 + 0.5) << "k = " << k;
    }
}

TEST(AsyncSettleTest, WorstCasePlacementRealizesTheRoundTrip)
{
    for (int k : {4, 6, 8}) {
        AsyncSettleModel arb(k);
        const auto placed = AsyncSettleModel::worstCasePlacement(k);
        const auto result = arb.settle(placed);
        // The alternating-bit winner prevails and the settle needs the
        // full cross-bus round trip.
        EXPECT_EQ(result.winner, 1) << k;
        EXPECT_NEAR(result.settleTime, 2.0, 1e-9) << k;
    }
}

TEST(AsyncSettleDeathTest, InvalidInputs)
{
    AsyncSettleModel arb(3);
    EXPECT_DEATH(arb.settle({PlacedCompetitor{1, 0, 0.0}}), "bad word");
    EXPECT_DEATH(arb.settle({PlacedCompetitor{1, 0b1000, 0.0}}),
                 "bad word");
    EXPECT_DEATH(arb.settle({PlacedCompetitor{1, 1, -0.5}}),
                 "position");
    EXPECT_DEATH(AsyncSettleModel(0), "out of range");
    EXPECT_DEATH(AsyncSettleModel::worstCasePlacement(3), "even");
}

} // namespace
} // namespace busarb
