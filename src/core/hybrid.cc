#include "core/hybrid.hh"

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
    recordedWinner_ = num_agents + 1;
    pending_.reset(num_agents);
    counters_.reset(num_agents, counterBits_, OverflowPolicy::kSaturate);
    pass_.reset(num_agents, arbitrationLineCount(), idBits_);
    passOpen_ = false;
    lastSeq_ = 0;
    passSeq_ = 0;
}

void
HybridProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    BUSARB_ASSERT(!req.priority,
                  "the hybrid protocol does not support priority requests");
    BUSARB_ASSERT(req.seq > lastSeq_, "request seq ", req.seq,
                  " does not follow ", lastSeq_);
    lastSeq_ = req.seq;
    if (!pending_.hasAgent(req.agent))
        counters_.set(req.agent, 0);
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
    passSeq_ = lastSeq_;
    // One outstanding word per agent: the oldest request has the largest
    // (saturating) counter, so it is the one the agent presents, and the
    // planes hold its counter.
    for (std::size_t w = 0; w < pass_.numWords(); ++w) {
        const std::uint64_t requesting = pending_.requestMaskWord(w);
        pass_.competitorWord(w) = requesting;
        pass_.lineWord(idBits_, w) =
            requesting & agentsBelowWord(recordedWinner_, w);
        for (int b = 0; b < counterBits_; ++b)
            pass_.lineWord(idBits_ + 1 + b, w) = counters_.plane(b, w);
    }
}

PassResult
HybridProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    const AgentId agent = pass_.winner();
    if (agent == kNoAgent) {
        BUSARB_ASSERT(pending_.empty(),
                      "hybrid pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }
    const Request won = pending_.oldest(agent).req;
    recordedWinner_ = won.agent;
    // Every request in the pass but the winner lost it: the competitors'
    // oldest requests as one add over the competitor mask, the requests
    // behind them singly.
    const auto bit = static_cast<std::size_t>(agent);
    for (std::size_t w = 0; w < pass_.numWords(); ++w) {
        std::uint64_t lost = pass_.competitorWord(w);
        if (w == (bit >> 6))
            lost &= ~(1ULL << (bit & 63));
        counters_.increment(w, lost);
    }
    pending_.forEachAgentWithSeveral([&](AgentId a) {
        pending_.forEachBehindOldest(a, [&](PendingEntry &e) {
            if (e.req.seq <= passSeq_)
                ++e.counter;
        });
    });

    return PassResult::makeWinner(won);
}

void
HybridProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    const bool oldest = pending_.oldest(req.agent).req.seq == req.seq;
    pending_.popBySeq(req.agent, req.seq);
    // The request behind a served oldest moves up, and its counter onto
    // the planes.
    if (oldest && pending_.hasAgent(req.agent))
        counters_.set(req.agent, pending_.oldest(req.agent).counter);
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
