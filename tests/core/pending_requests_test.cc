/**
 * @file
 * Unit tests for the pending-request bookkeeping.
 */

#include <vector>

#include <gtest/gtest.h>

#include "core/pending_requests.hh"

namespace busarb {
namespace {

Request
makeReq(AgentId agent, std::uint64_t seq, Tick issued = 0)
{
    Request r;
    r.agent = agent;
    r.seq = seq;
    r.issued = issued;
    return r;
}

TEST(PendingRequestsTest, StartsEmpty)
{
    PendingRequests p;
    p.reset(4);
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.size(), 0u);
    EXPECT_FALSE(p.hasAgent(1));
    EXPECT_EQ(p.numAgents(), 4);
}

TEST(PendingRequestsTest, AddAndPopOldest)
{
    PendingRequests p;
    p.reset(4);
    p.add(makeReq(2, 1));
    p.add(makeReq(2, 2));
    EXPECT_EQ(p.size(), 2u);
    EXPECT_TRUE(p.hasAgent(2));
    EXPECT_EQ(p.oldest(2).req.seq, 1u);
    const Request popped = p.popOldest(2);
    EXPECT_EQ(popped.seq, 1u);
    EXPECT_EQ(p.oldest(2).req.seq, 2u);
    p.popOldest(2);
    EXPECT_TRUE(p.empty());
}

TEST(PendingRequestsTest, FindAndPopBySeq)
{
    PendingRequests p;
    p.reset(4);
    p.add(makeReq(1, 10));
    p.add(makeReq(1, 11));
    p.add(makeReq(1, 12));
    ASSERT_NE(p.findBySeq(1, 11), nullptr);
    EXPECT_EQ(p.findBySeq(1, 11)->req.seq, 11u);
    EXPECT_EQ(p.findBySeq(1, 99), nullptr);
    const Request popped = p.popBySeq(1, 11);
    EXPECT_EQ(popped.seq, 11u);
    EXPECT_EQ(p.size(), 2u);
    EXPECT_EQ(p.oldest(1).req.seq, 10u);
    EXPECT_EQ(p.findBySeq(1, 11), nullptr);
}

TEST(PendingRequestsTest, EntriesKeepDynamicState)
{
    PendingRequests p;
    p.reset(2);
    PendingEntry &e = p.add(makeReq(1, 1));
    e.counter = 42;
    EXPECT_EQ(p.oldest(1).counter, 42u);
}

TEST(PendingRequestsTest, PriorityMaskAndSeveralAgentsFollowTheQueues)
{
    // Agent 70 sits in the second mask word.
    PendingRequests p;
    p.reset(70);
    const auto several = [&p] {
        std::vector<AgentId> agents;
        p.forEachAgentWithSeveral(
            [&](AgentId a) { agents.push_back(a); });
        return agents;
    };
    Request prio = makeReq(70, 1);
    prio.priority = true;
    p.add(makeReq(3, 2));
    p.add(prio);
    EXPECT_EQ(p.priorityMaskWord(0), 0u);
    EXPECT_EQ(p.priorityMaskWord(1), 1ULL << 6);
    EXPECT_TRUE(several().empty());

    // Two more requests of agent 3, a priority one behind its oldest.
    Request behind = makeReq(3, 3);
    behind.priority = true;
    p.add(behind);
    p.add(makeReq(3, 4));
    EXPECT_EQ(several(), (std::vector<AgentId>{3}));
    EXPECT_EQ(p.priorityMaskWord(0), 0u);
    std::vector<std::uint64_t> seen;
    p.forEachBehindOldest(
        3, [&](PendingEntry &e) { seen.push_back(e.req.seq); });
    EXPECT_EQ(seen, (std::vector<std::uint64_t>{3, 4}));

    // Serving agent 3's oldest moves the priority request up.
    p.popOldest(3);
    EXPECT_EQ(p.priorityMaskWord(0), 1ULL << 3);
    EXPECT_EQ(several(), (std::vector<AgentId>{3}));
    p.popBySeq(3, 4);
    EXPECT_TRUE(several().empty());
    p.popOldest(3);
    p.popOldest(70);
    EXPECT_EQ(p.priorityMaskWord(0) | p.priorityMaskWord(1), 0u);
    EXPECT_TRUE(p.empty());
}

TEST(PendingRequestsTest, ForEachVisitsAll)
{
    PendingRequests p;
    p.reset(3);
    p.add(makeReq(1, 1));
    p.add(makeReq(3, 2));
    p.add(makeReq(3, 3));
    int visits = 0;
    p.forEach([&](PendingEntry &) { ++visits; });
    EXPECT_EQ(visits, 3);
}

TEST(PendingRequestsTest, ForEachAgentOldestVisitsFronts)
{
    PendingRequests p;
    p.reset(3);
    p.add(makeReq(2, 1));
    p.add(makeReq(2, 2));
    p.add(makeReq(3, 3));
    std::vector<std::uint64_t> seqs;
    p.forEachAgentOldest(
        [&](PendingEntry &e) { seqs.push_back(e.req.seq); });
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 3}));
}

TEST(PendingRequestsTest, AgentsWithRequests)
{
    PendingRequests p;
    p.reset(5);
    p.add(makeReq(4, 1));
    p.add(makeReq(2, 2));
    std::vector<AgentId> agents;
    p.forEachAgentWithRequests(
        [&agents](AgentId agent) { agents.push_back(agent); });
    EXPECT_EQ(agents, (std::vector<AgentId>{2, 4}));
}

TEST(PendingRequestsTest, ResetClears)
{
    PendingRequests p;
    p.reset(2);
    p.add(makeReq(1, 1));
    p.reset(3);
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.numAgents(), 3);
}

TEST(PendingRequestsDeathTest, InvalidOperations)
{
    PendingRequests p;
    p.reset(2);
    EXPECT_DEATH(p.add(makeReq(3, 1)), "out of range");
    EXPECT_DEATH(p.oldest(1), "no pending request");
    EXPECT_DEATH(p.popOldest(1), "no pending request");
    p.add(makeReq(1, 5));
    EXPECT_DEATH(p.popBySeq(1, 6), "not pending");
}

} // namespace
} // namespace busarb
