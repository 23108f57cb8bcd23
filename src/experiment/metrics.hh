/**
 * @file
 * Measurement plumbing: turns bus service notifications into the paper's
 * output measures.
 *
 * Waiting time W follows the paper's usage in Table 4.2: the full time
 * from request issue to the completion of its bus transaction (queueing
 * + exposed arbitration + service). At a total offered load of 0.25 this
 * yields W near 1.64 and at saturation W approaches N minus the mean
 * think time, matching the published values.
 */

#ifndef BUSARB_EXPERIMENT_METRICS_HH
#define BUSARB_EXPERIMENT_METRICS_HH

#include <cstdint>
#include <vector>

#include "bus/bus.hh"
#include "stats/histogram.hh"
#include "stats/welford.hh"
#include "workload/closed_agent.hh"

namespace busarb {

/**
 * The waiting-time histogram's binning: 0.25-unit bins up to W = 300,
 * past the longest wait of the paper's largest system (64 agents).
 */
inline constexpr double kWaitBinWidth = 0.25;
inline constexpr std::size_t kWaitBins = 1200;

/**
 * Accumulates per-agent and global service statistics.
 *
 * All sums are cumulative; the experiment runner computes per-batch
 * values from snapshots.
 */
class MetricsCollector : public BusObserver, public ThinkSink
{
  public:
    /** Cumulative sums for one agent. */
    struct AgentSums
    {
        std::uint64_t completions = 0;
        double waitSum = 0.0;      ///< sum of W (issue -> service end)
        double queueWaitSum = 0.0; ///< sum of issue -> service start
        double overlapSum = 0.0;   ///< sum of min(V, W)
        double thinkSum = 0.0;     ///< productive think time
    };

    /** @param num_agents Number of agents (identities 1..N). */
    explicit MetricsCollector(int num_agents);

    /** Set the overlap limit V used for agent `agent` (Table 4.3). */
    void setOverlapLimit(AgentId agent, double overlap);

    // BusObserver
    void onServiceStart(const Request &req, Tick now) override;
    void onServiceEnd(const Request &req, Tick now) override;

    // ThinkSink
    void recordThink(AgentId agent, double think) override;

    /** @return Cumulative sums of `agent`. */
    const AgentSums &agent(AgentId agent) const;

    /** @return Total completed requests across agents. */
    std::uint64_t totalCompletions() const { return totalCompletions_; }

    /** @return Global sum of waiting times. */
    double totalWaitSum() const { return totalWaitSum_; }

    /** Restart the batch-local waiting-time accumulator. */
    void beginBatch() { batchWait_.clear(); }

    /**
     * Waiting times observed since the last beginBatch(), accumulated
     * with Welford's algorithm. Unlike differencing the cumulative
     * sums above (E[x^2] - E[x]^2), the batch-local accumulator stays
     * numerically stable when waits are large relative to their
     * spread.
     */
    const RunningStats &batchWaitStats() const { return batchWait_; }

    /**
     * Start recording waiting times into the histogram. The runner
     * calls it once warm-up ends, so warm-up waits stay out.
     */
    void enableHistogram() { histogramEnabled_ = true; }

    /** @return Waiting-time histogram (empty until enabled). */
    const Histogram &histogram() const { return histogram_; }

  private:
    std::vector<AgentSums> agents_;   // index by agent id, slot 0 unused
    std::vector<double> overlapLimit_;
    std::uint64_t totalCompletions_ = 0;
    double totalWaitSum_ = 0.0;
    RunningStats batchWait_;
    Histogram histogram_{kWaitBinWidth, kWaitBins};
    bool histogramEnabled_ = false;
};

} // namespace busarb

#endif // BUSARB_EXPERIMENT_METRICS_HH
