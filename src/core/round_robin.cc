#include "core/round_robin.hh"

#include "sim/logging.hh"

namespace busarb {

RoundRobinProtocol::RoundRobinProtocol(const RrConfig &config)
    : config_(config)
{
    if (config_.enablePriority &&
        config_.impl != RrImplementation::kPriorityBit) {
        BUSARB_FATAL("priority requests are only supported by RR "
                     "implementation 1 (kPriorityBit); see Section 3.1");
    }
}

void
RoundRobinProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    // Before any arbitration every agent's identity is "below" the
    // recorded winner, so the first arbitration is a plain contest that
    // the highest requesting identity wins.
    recordedWinner_ = num_agents + 1;
    pending_.reset(num_agents);
    pass_.reset(num_agents, numLines(), idBits_);
    passOpen_ = false;
}

int
RoundRobinProtocol::numLines() const
{
    // Static identity bits, plus the RR priority line for implementation 1
    // (implementation 2's low-request line is a control line, not an
    // arbitration line; implementation 3 adds nothing), plus the priority
    // class line when enabled.
    int lines = idBits_;
    if (config_.impl == RrImplementation::kPriorityBit)
        lines += 1;
    if (config_.enablePriority)
        lines += 1;
    return lines;
}

void
RoundRobinProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !config_.enablePriority) {
        BUSARB_FATAL("priority request posted but enablePriority is off");
    }
    pending_.add(req);
}

bool
RoundRobinProtocol::wantsPass() const
{
    return !pending_.empty();
}

void
RoundRobinProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    pass_.clear();

    // Which agents enter this arbitration? An agent is "low" when its
    // identity is below the recorded winner.
    const bool any_low = config_.impl == RrImplementation::kLowRequestLine &&
                         pending_.hasAgentBelow(recordedWinner_);
    for (std::size_t w = 0; w < pass_.numWords(); ++w) {
        const std::uint64_t requesting = pending_.requestMaskWord(w);
        const std::uint64_t low =
            requesting & agentsBelowWord(recordedWinner_, w);
        switch (config_.impl) {
          case RrImplementation::kPriorityBit:
            // Everyone competes; low agents assert the RR priority
            // bit, the most significant bit of their number.
            pass_.competitorWord(w) = requesting;
            pass_.lineWord(rrLine(), w) = low;
            break;
          case RrImplementation::kLowRequestLine:
            // Low-request line asserted: only low agents compete.
            pass_.competitorWord(w) = any_low ? low : requesting;
            break;
          case RrImplementation::kNoExtraLine:
            // Only low agents ever compete; an empty arbitration resets
            // the recorded winner (handled in completePass).
            pass_.competitorWord(w) = low;
            break;
        }
    }
    if (config_.enablePriority) {
        // An agent with a priority request presents it (the priority
        // line dominates its other words), optionally ignoring the RR
        // rule by always setting the RR bit.
        pending_.forEachAgentWithRequests([&](AgentId a) {
            if (pending_.oldestPriority(a) == nullptr)
                return;
            pass_.drive(priorityLine(), a);
            if (!config_.rrWithinPriorityClass)
                pass_.drive(rrLine(), a);
        });
    }
}

PassResult
RoundRobinProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    if (pass_.empty()) {
        if (pending_.empty())
            return PassResult::makeIdle();
        BUSARB_ASSERT(config_.impl == RrImplementation::kNoExtraLine,
                      "empty competitor set is only possible in RR "
                      "implementation 3");
        // "A winning identity of zero indicates that no agent participated
        // in the arbitration. In this case, the value N+1 is recorded as
        // the winning value and a new arbitration is started immediately."
        recordedWinner_ = numAgents_ + 1;
        return PassResult::makeRetry();
    }

    // Every agent records the winner's static identity (excluding the
    // round-robin priority bit) at the end of every arbitration.
    const AgentId winner = pass_.winner();
    recordedWinner_ = winner;

    // The winner presented its oldest priority request if it drove the
    // priority line, otherwise its oldest request; requests posted
    // during the pass are newer than either.
    const PendingEntry *entry =
        config_.enablePriority && pass_.drives(priorityLine(), winner)
            ? pending_.oldestPriority(winner)
            : &pending_.oldest(winner);
    BUSARB_ASSERT(entry != nullptr, "winning request vanished");
    return PassResult::makeWinner(entry->req);
}

void
RoundRobinProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
}

int
RoundRobinProtocol::settleRoundsForPass() const
{
    return pass_.settle().rounds;
}

std::string
RoundRobinProtocol::name() const
{
    switch (config_.impl) {
      case RrImplementation::kPriorityBit:
        return "RR (impl 1: rr-priority bit)";
      case RrImplementation::kLowRequestLine:
        return "RR (impl 2: low-request line)";
      case RrImplementation::kNoExtraLine:
        return "RR (impl 3: no extra line)";
    }
    return "RR";
}

} // namespace busarb
