/**
 * @file
 * Unit tests for the two assured-access baseline protocols (Section 2.2).
 */

#include <vector>

#include <gtest/gtest.h>

#include "baseline/aap_batch.hh"
#include "baseline/aap_futurebus.hh"
#include "support/protocol_driver.hh"

namespace busarb {
namespace {

using test::ProtocolDriver;

// ------------------------------------------------------------- AAP-1

TEST(BatchAapTest, BatchServedInDescendingIdentityOrder)
{
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(3, 0);
    driver.post(7, 0);
    driver.post(5, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 7);
    EXPECT_EQ(driver.arbitrateAndServe(2), 5);
    EXPECT_EQ(driver.arbitrateAndServe(3), 3);
    EXPECT_EQ(protocol.batchesFormed(), 1u);
}

TEST(BatchAapTest, MidBatchArrivalWaitsForNextBatch)
{
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(2, 0);
    driver.post(4, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 4);
    // Agent 8 arrives while the batch {2} is still in progress: even
    // with the highest identity it must wait for the batch to drain.
    driver.post(8, 2);
    EXPECT_EQ(driver.arbitrateAndServe(3), 2);
    EXPECT_EQ(driver.arbitrateAndServe(4), 8);
    EXPECT_EQ(protocol.batchesFormed(), 2u);
}

TEST(BatchAapTest, HighIdentityAlwaysFirstInItsBatch)
{
    // The unfairness the paper measures: agent 8 re-requests during
    // each batch and is served first in every batch, while agent 1
    // waits behind it every time.
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(1, 0);
    driver.post(8, 0);
    std::vector<AgentId> order;
    for (int round = 0; round < 6; ++round) {
        const AgentId winner = driver.arbitrateAndServe(round * 10 + 1);
        order.push_back(winner);
        driver.post(winner, round * 10 + 2); // immediate re-request
    }
    EXPECT_EQ(order,
              (std::vector<AgentId>{8, 1, 8, 1, 8, 1}));
}

TEST(BatchAapTest, NewBatchFormsWhenLastMemberStartsService)
{
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    driver.post(2, 0);
    // Waiting request posted mid-batch.
    driver.post(3, 1);
    // Batch {2} drains; at its tenure start the new batch {3} forms.
    EXPECT_EQ(driver.arbitrateAndServe(2), 2);
    EXPECT_TRUE(protocol.wantsPass());
    EXPECT_EQ(driver.arbitrateAndServe(3), 3);
}

TEST(BatchAapTest, EmptySystemIdles)
{
    BatchAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    EXPECT_EQ(driver.arbitrateAndServe(0), kNoAgent);
    EXPECT_FALSE(protocol.wantsPass());
    EXPECT_EQ(protocol.batchesFormed(), 0u);
}

// ------------------------------------------------------------- AAP-2

TEST(FuturebusAapTest, ServedAgentIsInhibitedUntilRelease)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(5, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 5);
    EXPECT_TRUE(protocol.isInhibited(5));
    // Re-request: needs a fairness release (one retry pass).
    driver.post(5, 2);
    EXPECT_EQ(driver.arbitrateAndServe(3), 5);
    EXPECT_EQ(driver.retries(), 1);
    EXPECT_EQ(protocol.fairnessReleases(), 1u);
}

TEST(FuturebusAapTest, UnservedAgentJoinsTheBatch)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 8);
    driver.post(4, 0);
    driver.post(6, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 6);
    // Agent 8 arrives mid-batch, has not been served in this batch:
    // it competes immediately and, having the highest identity, wins.
    driver.post(8, 2);
    EXPECT_EQ(driver.arbitrateAndServe(3), 8);
    EXPECT_EQ(driver.arbitrateAndServe(4), 4);
    EXPECT_EQ(protocol.fairnessReleases(), 0u);
}

TEST(FuturebusAapTest, NoAgentServedTwicePerBatch)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    driver.post(3, 0);
    driver.post(2, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 3);
    driver.post(3, 2); // 3 again, but it is inhibited
    EXPECT_EQ(driver.arbitrateAndServe(3), 2);
    // Batch over (everyone inhibited): release, then 3 is served.
    EXPECT_EQ(driver.arbitrateAndServe(4), 3);
    EXPECT_EQ(protocol.fairnessReleases(), 1u);
}

TEST(FuturebusAapTest, ReleaseClearsAllInhibitBits)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    driver.post(1, 0);
    driver.post(2, 0);
    driver.arbitrateAndServe(1); // 2
    driver.arbitrateAndServe(2); // 1
    EXPECT_TRUE(protocol.isInhibited(1));
    EXPECT_TRUE(protocol.isInhibited(2));
    driver.post(1, 3);
    driver.arbitrateAndServe(4); // release + serve 1
    EXPECT_FALSE(protocol.isInhibited(2));
    EXPECT_FALSE(protocol.isInhibited(3));
}

TEST(FuturebusAapTest, EmptySystemIdlesWithoutRelease)
{
    FuturebusAapProtocol protocol;
    ProtocolDriver driver(protocol, 4);
    EXPECT_EQ(driver.arbitrateAndServe(0), kNoAgent);
    EXPECT_EQ(protocol.fairnessReleases(), 0u);
}

TEST(AapDeathTest, PriorityRequestsRejectedWhenDisabled)
{
    BatchAapProtocol batch;
    ProtocolDriver d1(batch, 4);
    EXPECT_EXIT(d1.post(1, 0, true), ::testing::ExitedWithCode(1),
                "priority is disabled");
    FuturebusAapProtocol futurebus;
    ProtocolDriver d2(futurebus, 4);
    EXPECT_EXIT(d2.post(1, 0, true), ::testing::ExitedWithCode(1),
                "priority is disabled");
}

// ----------------------------------------- priority integration (§2.4)

TEST(BatchAapPriorityTest, PriorityJumpsTheBatch)
{
    BatchAapProtocol protocol(/*enable_priority=*/true);
    ProtocolDriver driver(protocol, 8);
    driver.post(2, 0);
    driver.post(4, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 4);
    // A priority request from the lowest identity arrives mid-batch:
    // it ignores batching and outranks the remaining member.
    driver.post(1, 2, /*priority=*/true);
    EXPECT_EQ(driver.arbitrateAndServe(3), 1);
    EXPECT_EQ(driver.arbitrateAndServe(4), 2);
}

TEST(BatchAapPriorityTest, PriorityAmongPriorityIsIdentityOrder)
{
    BatchAapProtocol protocol(true);
    ProtocolDriver driver(protocol, 8);
    driver.post(3, 0, true);
    driver.post(6, 0, true);
    driver.post(8, 0, false);
    EXPECT_EQ(driver.arbitrateAndServe(1), 6);
    EXPECT_EQ(driver.arbitrateAndServe(2), 3);
    EXPECT_EQ(driver.arbitrateAndServe(3), 8);
}

TEST(BatchAapPriorityTest, PriorityServiceDoesNotDisturbTheBatch)
{
    BatchAapProtocol protocol(true);
    ProtocolDriver driver(protocol, 8);
    driver.post(5, 0);
    driver.post(3, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 5);
    driver.post(7, 2, true); // priority, then the batch resumes
    EXPECT_EQ(driver.arbitrateAndServe(3), 7);
    EXPECT_EQ(driver.arbitrateAndServe(4), 3);
    EXPECT_EQ(protocol.batchesFormed(), 1u);
}

TEST(FuturebusAapPriorityTest, PriorityIgnoresInhibition)
{
    FuturebusAapProtocol protocol(/*enable_priority=*/true);
    ProtocolDriver driver(protocol, 8);
    driver.post(5, 0);
    EXPECT_EQ(driver.arbitrateAndServe(1), 5);
    EXPECT_TRUE(protocol.isInhibited(5));
    // Agent 5 is inhibited for normal traffic but its priority request
    // competes immediately, with no fairness release.
    driver.post(5, 2, true);
    EXPECT_EQ(driver.arbitrateAndServe(3), 5);
    EXPECT_EQ(protocol.fairnessReleases(), 0u);
    // Priority service does not inhibit (nor un-inhibit) the agent.
    EXPECT_TRUE(protocol.isInhibited(5));
}

TEST(FuturebusAapPriorityTest, PriorityBeatsEveryBatchMember)
{
    FuturebusAapProtocol protocol(true);
    ProtocolDriver driver(protocol, 8);
    driver.post(8, 0, false);
    driver.post(2, 0, true);
    EXPECT_EQ(driver.arbitrateAndServe(1), 2);
    EXPECT_EQ(driver.arbitrateAndServe(2), 8);
}

// ------------------------------------------- signal-level settle timing

TEST(AapSettleTest, PriorityLineIsCountedWhenEnabled)
{
    // 10 agents need 4 identity lines; the priority line is a fifth.
    BatchAapProtocol batch(false), batch_prio(true);
    FuturebusAapProtocol futurebus(false), futurebus_prio(true);
    for (ArbitrationProtocol *p : std::vector<ArbitrationProtocol *>{
             &batch, &batch_prio, &futurebus, &futurebus_prio}) {
        p->reset(10);
    }
    EXPECT_EQ(batch.arbitrationLineCount(), 4);
    EXPECT_EQ(batch_prio.arbitrationLineCount(), 5);
    EXPECT_EQ(futurebus.arbitrationLineCount(), 4);
    EXPECT_EQ(futurebus_prio.arbitrationLineCount(), 5);
}

TEST(AapSettleTest, PriorityWordsSettle)
{
    BatchAapProtocol batch(true);
    FuturebusAapProtocol futurebus(true);
    for (ArbitrationProtocol *p :
         std::vector<ArbitrationProtocol *>{&batch, &futurebus}) {
        ProtocolDriver driver(*p, 5);
        driver.post(5, 0, false);
        const Request urgent = driver.post(2, 0, true);
        p->beginPass(0);
        EXPECT_GE(p->settleRoundsForPass(), 0); // word 0b1010 fits
        const PassResult result = p->completePass(0);
        EXPECT_EQ(result.winner.seq, urgent.seq);
    }
}

TEST(AapSettleTest, AnAgentDrivesOneWord)
{
    // Agent 3 has two batch members (AAP-1), and agent 4 a priority
    // and a normal request (AAP-2); each presents one word, its oldest
    // priority request or else its oldest eligible one, and agent 1
    // withdraws in one settle round.
    BatchAapProtocol batch;
    ProtocolDriver d1(batch, 4);
    const Request first = d1.post(3, 0);
    d1.post(3, 0);
    d1.post(1, 0);
    batch.beginPass(0);
    EXPECT_EQ(batch.settleRoundsForPass(), 1);
    EXPECT_EQ(batch.completePass(0).winner.seq, first.seq);

    FuturebusAapProtocol futurebus(true);
    ProtocolDriver d2(futurebus, 4);
    d2.post(4, 0);
    const Request urgent = d2.post(4, 0, true);
    d2.post(1, 0);
    futurebus.beginPass(0);
    EXPECT_EQ(futurebus.settleRoundsForPass(), 1);
    EXPECT_EQ(futurebus.completePass(0).winner.seq, urgent.seq);
}

} // namespace
} // namespace busarb
