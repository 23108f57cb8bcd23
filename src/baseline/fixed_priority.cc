#include "baseline/fixed_priority.hh"

#include "sim/logging.hh"

namespace busarb {

FixedPriorityProtocol::FixedPriorityProtocol(bool enable_priority)
    : enablePriority_(enable_priority)
{
}

void
FixedPriorityProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    pending_.reset(num_agents);
    pass_.reset(num_agents, arbitrationLineCount(), idBits_);
    passOpen_ = false;
}

void
FixedPriorityProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !enablePriority_)
        BUSARB_FATAL("priority request posted but priority is disabled");
    pending_.add(req);
}

bool
FixedPriorityProtocol::wantsPass() const
{
    return !pending_.empty();
}

void
FixedPriorityProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    pass_.clear();
    for (std::size_t w = 0; w < pass_.numWords(); ++w)
        pass_.competitorWord(w) = pending_.requestMaskWord(w);
    if (enablePriority_) {
        // An agent with both classes pending presents its priority
        // request, with the priority bit set.
        pending_.forEachAgentWithRequests([&](AgentId a) {
            if (pending_.oldestPriority(a) != nullptr)
                pass_.drive(idBits_, a);
        });
    }
}

PassResult
FixedPriorityProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    if (pass_.empty()) {
        BUSARB_ASSERT(pending_.empty(),
                      "pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }
    const AgentId winner = pass_.winner();
    const PendingEntry *entry =
        enablePriority_ && pass_.drives(idBits_, winner)
            ? pending_.oldestPriority(winner)
            : &pending_.oldest(winner);
    BUSARB_ASSERT(entry != nullptr, "winning request vanished");
    return PassResult::makeWinner(entry->req);
}

void
FixedPriorityProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
FixedPriorityProtocol::settleRoundsForPass() const
{
    return pass_.settle().rounds;
}

std::string
FixedPriorityProtocol::name() const
{
    return "Fixed priority (parallel contention)";
}

} // namespace busarb
