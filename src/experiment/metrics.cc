#include "experiment/metrics.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace busarb {

MetricsCollector::MetricsCollector(int num_agents)
    : agents_(static_cast<std::size_t>(num_agents) + 1),
      overlapLimit_(static_cast<std::size_t>(num_agents) + 1, 0.0)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
}

void
MetricsCollector::setOverlapLimit(AgentId agent, double overlap)
{
    BUSARB_ASSERT(agent >= 1 &&
                  agent < static_cast<AgentId>(overlapLimit_.size()),
                  "agent id out of range: ", agent);
    BUSARB_ASSERT(overlap >= 0.0, "negative overlap");
    overlapLimit_[static_cast<std::size_t>(agent)] = overlap;
}

void
MetricsCollector::onServiceStart(const Request &req, Tick now)
{
    auto &sums = agents_[static_cast<std::size_t>(req.agent)];
    sums.queueWaitSum += ticksToUnits(now - req.issued);
}

void
MetricsCollector::onServiceEnd(const Request &req, Tick now)
{
    auto &sums = agents_[static_cast<std::size_t>(req.agent)];
    const double wait = ticksToUnits(now - req.issued);
    ++sums.completions;
    sums.waitSum += wait;
    const double limit = overlapLimit_[static_cast<std::size_t>(req.agent)];
    sums.overlapSum += std::min(limit, wait);
    ++totalCompletions_;
    totalWaitSum_ += wait;
    batchWait_.add(wait);
    if (histogramEnabled_)
        histogram_.add(wait);
}

void
MetricsCollector::recordThink(AgentId agent, double think)
{
    agents_[static_cast<std::size_t>(agent)].thinkSum += think;
}

const MetricsCollector::AgentSums &
MetricsCollector::agent(AgentId agent) const
{
    BUSARB_ASSERT(agent >= 1 &&
                  agent < static_cast<AgentId>(agents_.size()),
                  "agent id out of range: ", agent);
    return agents_[static_cast<std::size_t>(agent)];
}

} // namespace busarb
