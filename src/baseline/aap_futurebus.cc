#include "baseline/aap_futurebus.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace busarb {

FuturebusAapProtocol::FuturebusAapProtocol(bool enable_priority)
    : enablePriority_(enable_priority)
{
}

void
FuturebusAapProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    pending_.reset(num_agents);
    pass_.reset(num_agents, arbitrationLineCount(), idBits_);
    inhibited_.assign(pass_.numWords(), 0);
    passOpen_ = false;
    releases_ = 0;
}

bool
FuturebusAapProtocol::isInhibited(AgentId agent) const
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents_,
                  "agent id out of range: ", agent);
    const auto bit = static_cast<std::size_t>(agent);
    return ((inhibited_[bit >> 6] >> (bit & 63)) & 1ULL) != 0;
}

void
FuturebusAapProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !enablePriority_)
        BUSARB_FATAL("priority request posted but priority is disabled");
    pending_.add(req);
}

bool
FuturebusAapProtocol::wantsPass() const
{
    // Even when every requester is inhibited an arbitration cycle must
    // run: that empty cycle is the fairness release.
    return !pending_.empty();
}

void
FuturebusAapProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    pass_.clear();
    // Uninhibited requesters assert the request line and compete.
    for (std::size_t w = 0; w < pass_.numWords(); ++w) {
        pass_.competitorWord(w) =
            pending_.requestMaskWord(w) & ~inhibited_[w];
    }
    if (enablePriority_) {
        // An agent drives one word: its oldest priority request ignores
        // the inhibit protocol and asserts the priority line (most
        // significant bit).
        pending_.forEachAgentWithRequests([&](AgentId a) {
            if (pending_.oldestPriority(a) == nullptr)
                return;
            pass_.addCompetitor(a);
            pass_.drive(idBits_, a);
        });
    }
}

PassResult
FuturebusAapProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    if (pass_.empty()) {
        if (pending_.empty())
            return PassResult::makeIdle();
        // "The fairness release operation is an arbitration cycle in
        // which no agents assert the request line": all inhibit marks
        // clear and the next arbitration starts a new batch.
        std::fill(inhibited_.begin(), inhibited_.end(), 0);
        ++releases_;
        return PassResult::makeRetry();
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
FuturebusAapProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

void
FuturebusAapProtocol::tenureEnded(const Request &req, Tick now)
{
    (void)now;
    // "At the completion of its bus tenure, the agent marks itself as
    // inhibited." Priority service bypasses the fairness protocol and
    // leaves the inhibit state untouched.
    if (!req.priority) {
        const auto bit = static_cast<std::size_t>(req.agent);
        inhibited_[bit >> 6] |= 1ULL << (bit & 63);
    }
}

int
FuturebusAapProtocol::settleRoundsForPass() const
{
    return pass_.settle().rounds;
}

std::string
FuturebusAapProtocol::name() const
{
    return "AAP-2 (Futurebus inhibit / fairness release)";
}

} // namespace busarb
