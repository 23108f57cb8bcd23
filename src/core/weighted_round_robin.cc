#include "core/weighted_round_robin.hh"

#include "sim/logging.hh"

namespace busarb {

WeightedRoundRobinProtocol::WeightedRoundRobinProtocol(
    const WrrConfig &config)
    : config_(config)
{
    for (int w : config_.weights) {
        if (w < 1)
            BUSARB_FATAL("WRR weights must be >= 1, got ", w);
    }
}

void
WeightedRoundRobinProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    if (config_.weights.size() > 1 &&
        config_.weights.size() != static_cast<std::size_t>(num_agents)) {
        BUSARB_FATAL("WRR weight vector has ", config_.weights.size(),
                     " entries for ", num_agents,
                     " agents (use one weight to broadcast)");
    }
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    // As in RR implementation 1: before any arbitration every identity
    // is "below" the recorded winner, and nobody holds burst credits.
    recordedWinner_ = num_agents + 1;
    credits_ = 0;
    pending_.reset(num_agents);
    pass_.reset(num_agents, arbitrationLineCount(), idBits_);
    passOpen_ = false;
}

int
WeightedRoundRobinProtocol::weightOf(AgentId agent) const
{
    if (config_.weights.empty())
        return 1;
    if (config_.weights.size() == 1)
        return config_.weights.front();
    return config_.weights[static_cast<std::size_t>(agent - 1)];
}

void
WeightedRoundRobinProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority)
        BUSARB_FATAL("WRR does not support priority-class requests");
    pending_.add(req);
}

bool
WeightedRoundRobinProtocol::wantsPass() const
{
    return !pending_.empty();
}

void
WeightedRoundRobinProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    pass_.clear();
    // Every requester competes, with the RR bit set below the recorded
    // winner; the winner keeps asserting the claim line while it holds
    // burst credits.
    for (std::size_t w = 0; w < pass_.numWords(); ++w) {
        const std::uint64_t requesting = pending_.requestMaskWord(w);
        pass_.competitorWord(w) = requesting;
        pass_.lineWord(idBits_, w) =
            requesting & agentsBelowWord(recordedWinner_, w);
    }
    if (credits_ > 0)
        pass_.drive(idBits_ + 1, recordedWinner_);
}

PassResult
WeightedRoundRobinProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    if (pass_.empty())
        return PassResult::makeIdle();

    // Every agent updates the winner identity and the burst credit
    // count; both are functions of broadcast information, so the state
    // stays consistent across agents without extra lines.
    const AgentId winner = pass_.winner();
    if (winner == recordedWinner_ && credits_ > 0) {
        --credits_;
    } else {
        recordedWinner_ = winner;
        credits_ = weightOf(winner) - 1;
    }

    // All of one agent's requests share a word, so it presents its
    // oldest (PendingRequests keeps arrival order).
    return PassResult::makeWinner(pending_.oldest(winner).req);
}

void
WeightedRoundRobinProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
WeightedRoundRobinProtocol::settleRoundsForPass() const
{
    return pass_.settle().rounds;
}

std::string
WeightedRoundRobinProtocol::name() const
{
    std::string weights;
    if (config_.weights.empty()) {
        weights = "1";
    } else {
        for (std::size_t i = 0; i < config_.weights.size(); ++i) {
            if (i > 0)
                weights += "/";
            weights += std::to_string(config_.weights[i]);
        }
    }
    return "WRR (weights " + weights + ")";
}

} // namespace busarb
