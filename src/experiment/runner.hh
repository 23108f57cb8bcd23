/**
 * @file
 * The scenario runner: wires a protocol, a bus, closed-loop agents and a
 * metrics collector together, runs warm-up plus a fixed number of
 * batch-means batches, and returns per-batch measurements with
 * confidence-interval helpers (Section 4.1 methodology).
 */

#ifndef BUSARB_EXPERIMENT_RUNNER_HH
#define BUSARB_EXPERIMENT_RUNNER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bus/protocol.hh"
#include "experiment/metrics.hh"
#include "obs/metrics_registry.hh"
#include "obs/profiler.hh"
#include "obs/run_health.hh"
#include "stats/batch_means.hh"
#include "stats/histogram.hh"
#include "workload/scenario.hh"

namespace busarb {

/** Creates a fresh protocol instance for a run. */
using ProtocolFactory =
    std::function<std::unique_ptr<ArbitrationProtocol>()>;

/** Measurements taken over one batch. */
struct BatchStats
{
    /** Batch duration in transaction units. */
    double duration = 0.0;

    /** Completions per agent (index i is agent i+1). */
    std::vector<std::uint64_t> completions;

    /** Mean waiting time W over the batch. */
    double waitMean = 0.0;

    /** Population standard deviation of W over the batch. */
    double waitStddev = 0.0;

    /** Per-agent productive time (think + realized overlap) in batch. */
    std::vector<double> productive;

    /** Per-agent wall time spent per request cycle (think + W) in batch. */
    std::vector<double> cycle;

    /** Per-agent waiting-time sum (for residual-wait computations). */
    std::vector<double> waitSum;

    /** Per-agent realized overlap sum (min(V, W) per request). */
    std::vector<double> overlapSum;

    /** Bus utilization over the batch (busy fraction). */
    double utilization = 0.0;

    /** Arbitration passes and retry passes during the batch. */
    std::uint64_t passes = 0;
    std::uint64_t retryPasses = 0;
};

/**
 * Workload-side observables of one run. Meaningful counts are only
 * collected for open-loop sources (openLoop set): a closed loop cannot
 * build backlog by construction, and keeping the closed path untouched
 * preserves byte-identity with pre-seam artifacts.
 */
struct WorkloadStats
{
    /** True when the run's source was open-loop. */
    bool openLoop = false;

    /**
     * True when the saturation detector fired: the backlog grew by
     * more than max(64, 5% of measured completions) over the
     * measurement period, i.e. offered load exceeded what the bus
     * could carry and every wait statistic is transient-dependent.
     */
    bool saturated = false;

    /** Requests issued by the source over the whole run. */
    std::uint64_t issued = 0;

    /** Requests issued but not yet completed at run end. */
    std::uint64_t finalBacklog = 0;

    /** Requests issued per unit time over the measurement period. */
    double offeredRate = 0.0;

    /** Completions per unit time over the measurement period. */
    double carriedRate = 0.0;
};

/** Results of one scenario run. */
struct ScenarioResult
{
    std::string protocolName;

    /**
     * The protocol spec string this run was built from; "" when the
     * caller constructed the factory directly. Filled by
     * runScenarioGrid from GridJob::spec and recorded as the
     * `protocol.spec` metrics annotation for provenance.
     */
    std::string spec;

    /**
     * The workload spec the run was driven by (canonical registry
     * grammar); copied from ScenarioConfig::workloadSpec.
     */
    std::string workloadSpec = "closed";

    int numAgents = 0;
    double confidence = 0.90;
    std::vector<BatchStats> batches;

    /** Workload observables; counts populated for open-loop runs. */
    WorkloadStats workload;

    /**
     * Wall-clock time this scenario took to simulate, in milliseconds.
     * Filled by runScenarioGrid (0 when the scenario was run directly
     * through runScenario). Host timing only — never feeds back into
     * the simulation, so results stay deterministic.
     */
    double elapsedMs = 0.0;

    /**
     * Waiting-time histogram over the whole measurement period (warm-up
     * excluded), collected on every run; the grid tables' cdf(t) and
     * overlap quantities read it.
     */
    Histogram waitHistogram{kWaitBinWidth, kWaitBins};

    /**
     * Binary event trace of the run; empty unless
     * ScenarioConfig::observe.captureTrace was set. Decode with
     * readTraceChunks (obs/binary_trace.hh) or feed to busarb_trace.
     */
    std::vector<std::uint8_t> binaryTrace;

    /**
     * Hierarchical metrics of the run (obs/metrics_registry.hh):
     * bus.* counters, agent.NN.* per-agent measures and wait.* summary
     * gauges (busarb_sim --histogram-csv adds waitHistogram as
     * wait.histogram).
     * Accumulated per run — never shared across JobPool workers — and
     * mergeable deterministically by the caller.
     */
    MetricsRegistry metrics;

    /**
     * Fairness snapshot JSONL (obs/fairness_auditor.hh); empty unless
     * ScenarioConfig::observe.snapshotEvery was set. Keyed purely to
     * simulated time, so the text is byte-identical at any --jobs
     * count.
     */
    std::string fairnessSnapshots;

    /**
     * Run-health diagnosis (obs/run_health.hh); enabled only when
     * ScenarioConfig::observe.health was set. The verdict and every
     * diagnostic are pure functions of the batch series, so they are
     * identical at any --jobs count.
     */
    RunHealthReport health;

    /**
     * Per-batch health snapshot JSONL, keyed to simulated time; empty
     * unless ScenarioConfig::observe.healthSnapshots was set.
     */
    std::string healthSnapshots;

    /**
     * Self-profile of the run (obs/profiler.hh); meaningful only when
     * ScenarioConfig::profile was set. Wall-clock fields are host
     * timing and must stay out of artifacts compared across --jobs.
     */
    ProfileReport profile;

    /** @return Total system throughput (requests per unit time). */
    Estimate throughput() const;

    /** @return Bus utilization (equals throughput when S = 1). */
    Estimate utilization() const;

    /** @return Throughput of one agent (requests per unit time). */
    Estimate agentThroughput(AgentId agent) const;

    /**
     * Per-batch ratio of two agents' throughputs.
     *
     * If the denominator agent completed nothing in some batch (true
     * starvation, e.g. under fixed priority), the per-batch ratio is
     * undefined; the estimate falls back to the ratio of the agents'
     * total completions (infinity if the denominator never completed),
     * with a zero half-width.
     *
     * @return Ratio estimate.
     */
    Estimate throughputRatio(AgentId numer, AgentId denom) const;

    /** @return Mean waiting time W. */
    Estimate meanWait() const;

    /** @return One agent's mean waiting time W. */
    Estimate agentMeanWait(AgentId agent) const;

    /** @return Standard deviation of the waiting time. */
    Estimate waitStddev() const;

    /**
     * @return Aggregate productivity: productive time / wall time,
     *         across all agents (Table 4.3).
     */
    Estimate productivity() const;

    /**
     * One agent's productivity: the fraction of its time spent
     * computing (think time plus realized overlap) rather than waiting
     * for the bus. For a multiprocessor this is the processor's
     * relative execution speed (Section 1: bus share translates
     * directly into process speed).
     *
     * @param agent The agent.
     * @return Productivity estimate in [0, 1].
     */
    Estimate agentProductivity(AgentId agent) const;

    /** @return Mean residual wait W - min(V, W) (Table 4.3). */
    Estimate residualWait() const;

    /** @return Fraction of arbitration passes that were retries. */
    Estimate retryPassFraction() const;

    /**
     * Waiting-time percentile from the collected histogram.
     *
     * @param p Probability in [0, 1].
     * @return Approximate p-quantile of W; the result must hold
     *         measured waits (every run's does).
     */
    double waitPercentile(double p) const;
};

/** How a derived estimate appears in the sweep CSV. */
enum class CsvForm {
    kAbsent,            ///< no column
    kValue,             ///< column `key`
    kValueAndHalfWidth, ///< columns `key` and `key_hw`
};

/** One derived estimate: its names in every view, and its function. */
struct ResultEstimate
{
    const char *key;   ///< sweep-CSV column and sweep-table header
    const char *label; ///< run-report and busarb_sim summary label
    int digits;        ///< decimals in the report and the summary
    CsvForm csv;
    Estimate (*compute)(const ScenarioResult &);
};

/**
 * The derived estimates of a ScenarioResult, in run-report order; the
 * sweep CSV's columns follow the same order. Every view that prints an
 * estimate reads it from here, so a new estimate is one row.
 */
inline constexpr ResultEstimate kResultEstimates[] = {
    {"throughput", "throughput (req/unit)", 2, CsvForm::kValueAndHalfWidth,
     [](const ScenarioResult &r) { return r.throughput(); }},
    {"utilization", "bus utilization", 3, CsvForm::kValue,
     [](const ScenarioResult &r) { return r.utilization(); }},
    {"wait_mean", "mean wait W", 2, CsvForm::kValueAndHalfWidth,
     [](const ScenarioResult &r) { return r.meanWait(); }},
    {"wait_stddev", "stddev of W", 2, CsvForm::kValueAndHalfWidth,
     [](const ScenarioResult &r) { return r.waitStddev(); }},
    {"ratio_hi_lo", "t[N]/t[1] fairness ratio", 2,
     CsvForm::kValueAndHalfWidth,
     [](const ScenarioResult &r) {
         return r.throughputRatio(r.numAgents, 1);
     }},
    {"productivity", "productivity", 3, CsvForm::kAbsent,
     [](const ScenarioResult &r) { return r.productivity(); }},
    {"residual_wait", "residual wait", 2, CsvForm::kAbsent,
     [](const ScenarioResult &r) { return r.residualWait(); }},
    {"retry_fraction", "retry-pass fraction", 4, CsvForm::kAbsent,
     [](const ScenarioResult &r) { return r.retryPassFraction(); }},
};

/**
 * Run one scenario under one protocol.
 *
 * @param config Scenario description.
 * @param factory Creates the protocol instance.
 * @return Per-batch measurements and estimate helpers.
 */
ScenarioResult runScenario(const ScenarioConfig &config,
                           const ProtocolFactory &factory);

/** One cell of a scenario grid: a scenario and the protocol to run. */
struct GridJob
{
    ScenarioConfig config;
    ProtocolFactory factory;

    /**
     * Optional protocol spec string the factory was built from
     * (registry grammar, experiment/protocol_registry.hh). When
     * non-empty it is copied into ScenarioResult::spec and annotated
     * into the cell's metrics as `protocol.spec`.
     */
    std::string spec = {};
};

/**
 * Run a grid of independent scenarios, fanned out across threads.
 *
 * Each cell is fully hermetic — its own event queue, RNG (seeded from
 * its config), bus, protocol instance, and collector — so the results
 * are bit-identical to running the cells serially, in any thread
 * interleaving. Results are returned in submission order; each result
 * carries its per-scenario wall-clock time in elapsedMs.
 *
 * Cells whose config attaches a tracer are not safe to run in parallel
 * with each other (tracers write to a shared stream); run those with
 * jobs = 1.
 *
 * @param grid The scenarios to run.
 * @param jobs Worker threads; <= 0 means one per hardware thread, 1
 *        runs the cells serially on the calling thread.
 * @param on_progress Optional callback invoked after each cell
 *        completes with (cells done so far, total cells). Calls are
 *        serialized (never concurrent) but may come from any worker
 *        thread and in any cell order; intended for progress/ETA
 *        output, which must never touch the deterministic artifacts.
 * @return One result per grid cell, in submission order.
 */
std::vector<ScenarioResult>
runScenarioGrid(const std::vector<GridJob> &grid, int jobs = 0,
                const std::function<void(std::size_t, std::size_t)>
                    &on_progress = nullptr);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_RUNNER_HH
