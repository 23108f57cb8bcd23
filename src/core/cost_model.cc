#include "core/cost_model.hh"

#include <sstream>

#include "bus/arbitration_pass.hh"
#include "sim/logging.hh"

namespace busarb {

namespace {

/** Settle delay of a w-bit wired-OR max-find, in propagations. */
double
fullFieldDelay(int width)
{
    return width / 2.0;
}

/** Default FCFS counter width (mirrors FcfsProtocol::reset). */
int
fcfsCounterBits(int num_agents, const FcfsConfig &config)
{
    if (config.counterBits > 0)
        return config.counterBits;
    int bits = linesForAgents(num_agents);
    int extra = 0;
    while ((1 << extra) < config.maxOutstandingHint)
        ++extra;
    return bits + extra;
}

} // namespace

WiringCost
fixedPriorityCost(int num_agents, LineEncoding encoding)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    const int k = linesForAgents(num_agents);
    WiringCost cost;
    cost.arbitrationLines = k;
    cost.controlLines = 1; // shared bus-request line
    cost.arbitrationPropagations =
        (encoding == LineEncoding::kFull) ? fullFieldDelay(k) : 1.0;
    return cost;
}

WiringCost
assuredAccessCost(int num_agents, LineEncoding encoding)
{
    // Both assured access protocols use the plain arbitration field and
    // the request line; the batching / inhibit state lives inside each
    // agent. Binary patterning works: nobody needs the winner identity.
    return fixedPriorityCost(num_agents, encoding);
}

WiringCost
roundRobinCost(int num_agents, const RrConfig &config,
               LineEncoding encoding)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    const int k = linesForAgents(num_agents);
    WiringCost cost;
    cost.arbitrationLines = k;
    cost.controlLines = 1; // request line
    switch (config.impl) {
      case RrImplementation::kPriorityBit:
        cost.arbitrationLines += 1; // the rr-priority bit
        break;
      case RrImplementation::kLowRequestLine:
        cost.controlLines += 1; // the low-request line
        break;
      case RrImplementation::kNoExtraLine:
        break;
    }
    if (config.enablePriority)
        cost.arbitrationLines += 1;
    if (encoding == LineEncoding::kFull) {
        cost.arbitrationPropagations =
            fullFieldDelay(cost.arbitrationLines);
    } else {
        // Binary-patterned lines cannot broadcast the winner's
        // identity, which every RR agent must record: k extra
        // broadcast lines (paper footnote 2). The dynamic rr bit stays
        // a full line; static pattern settles in ~1 propagation.
        cost.broadcastLines = k;
        cost.arbitrationPropagations = 2.0;
    }
    return cost;
}

WiringCost
fcfsCost(int num_agents, const FcfsConfig &config, LineEncoding encoding)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    const int k = linesForAgents(num_agents);
    const int c = fcfsCounterBits(num_agents, config);
    WiringCost cost;
    cost.arbitrationLines = k + c;
    cost.controlLines = 1; // request line
    if (config.strategy == FcfsStrategy::kIncrLine) {
        cost.controlLines += 1; // a-incr
        if (config.enablePriority &&
            config.priorityCounting == PriorityCounting::kDualIncrLines)
            cost.controlLines += 1; // a-incr-priority
    }
    if (config.enablePriority)
        cost.arbitrationLines += 1;
    if (encoding == LineEncoding::kFull) {
        cost.arbitrationPropagations =
            fullFieldDelay(cost.arbitrationLines);
    } else {
        // Only the static identity can be binary-patterned; the
        // dynamic counter field still settles bit-serially (paper
        // footnote 3: c/2 for the dynamic part + 1 for the static).
        cost.arbitrationPropagations = fullFieldDelay(c) + 1.0;
    }
    return cost;
}

std::string
describeCost(const WiringCost &cost)
{
    std::ostringstream os;
    os << cost.totalLines() << " lines (" << cost.arbitrationLines
       << " arb";
    if (cost.broadcastLines > 0)
        os << " + " << cost.broadcastLines << " broadcast";
    os << " + " << cost.controlLines << " control), "
       << cost.arbitrationPropagations << " propagations/arbitration";
    return os.str();
}

} // namespace busarb
