#include "experiment/metrics.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace busarb {

MetricsCollector::MetricsCollector(int num_agents, double hist_bin_width,
                                   std::size_t hist_bins)
    : agents_(static_cast<std::size_t>(num_agents) + 1),
      overlapLimit_(static_cast<std::size_t>(num_agents) + 1, 0.0),
      histogram_(hist_bin_width, hist_bins)
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
    if (!agentHistograms_.empty())
        agentHistograms_[static_cast<std::size_t>(req.agent - 1)]
            .add(wait);
}

void
MetricsCollector::enablePerAgentHistograms()
{
    if (!agentHistograms_.empty())
        return;
    const std::size_t n = agents_.size() - 1;
    agentHistograms_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        agentHistograms_.emplace_back(histogram_.binWidth(),
                                      histogram_.numBins());
}

const Histogram &
MetricsCollector::agentHistogram(AgentId agent) const
{
    BUSARB_ASSERT(!agentHistograms_.empty(),
                  "per-agent histograms are not enabled");
    BUSARB_ASSERT(agent >= 1 &&
                  agent <= static_cast<AgentId>(agentHistograms_.size()),
                  "agent id out of range: ", agent);
    return agentHistograms_[static_cast<std::size_t>(agent - 1)];
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
