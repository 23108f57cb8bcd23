#include "core/hybrid.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace busarb {

HybridProtocol::HybridProtocol(const HybridConfig &config) : config_(config)
{
    BUSARB_ASSERT(config_.counterBits >= 0 && config_.counterBits <= 32,
                  "counter width out of range: ", config_.counterBits);
}

void
HybridProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    counterBits_ =
        (config_.counterBits > 0) ? config_.counterBits : idBits_;
    counterMax_ = (1ULL << counterBits_) - 1ULL;
    recordedWinner_ = num_agents + 1;
    pending_.reset(num_agents);
    pass_.reset(num_agents, arbitrationLineCount(), idBits_);
    pass_.defineField(idBits_ + 1, counterBits_);
    passOpen_ = false;
}

void
HybridProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    BUSARB_ASSERT(!req.priority,
                  "the hybrid protocol does not support priority requests");
    pending_.add(req);
}

bool
HybridProtocol::wantsPass() const
{
    return !pending_.empty();
}

void
HybridProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    pass_.clear();
    for (std::size_t w = 0; w < pass_.numWords(); ++w) {
        const std::uint64_t requesting = pending_.requestMaskWord(w);
        pass_.competitorWord(w) = requesting;
        pass_.lineWord(idBits_, w) =
            requesting & agentsBelowWord(recordedWinner_, w);
    }
    pending_.forEachAgentOldest([&](PendingEntry &e) {
        // One outstanding word per agent; the oldest request has the
        // largest counter, so it is the one the agent presents.
        pass_.setField(e.req.agent, static_cast<std::uint32_t>(
                                        std::min(e.counter, counterMax_)));
    });
    pass_.fieldToLines();
    pending_.forEach([](PendingEntry &e) { e.inPass = true; });
}

PassResult
HybridProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    if (pass_.empty()) {
        BUSARB_ASSERT(pending_.empty(),
                      "hybrid pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }

    const Request won = pending_.oldest(pass_.winner()).req;
    recordedWinner_ = won.agent;
    pending_.forEach([&](PendingEntry &e) {
        if (e.inPass && e.req.seq != won.seq)
            ++e.counter;
        e.inPass = false;
    });

    return PassResult::makeWinner(won);
}

void
HybridProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
HybridProtocol::settleRoundsForPass() const
{
    return pass_.settle().rounds;
}

std::string
HybridProtocol::name() const
{
    return "Hybrid (FCFS with RR tie-break)";
}

} // namespace busarb
