#include "experiment/runner.hh"

#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <utility>

#include "experiment/job_pool.hh"
#include "experiment/workload_registry.hh"
#include "obs/binary_trace.hh"
#include "obs/export_format.hh"
#include "obs/fairness_auditor.hh"
#include "obs/fanout.hh"
#include "obs/flight_recorder.hh"
#include "obs/run_health.hh"
#include "random/rng.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "workload/workload_source.hh"

namespace busarb {

namespace {

/** Snapshot of all cumulative counters at a batch boundary. */
struct Snapshot
{
    Tick now = 0;
    std::uint64_t totalCompletions = 0;
    Tick busyTicks = 0;
    std::uint64_t passes = 0;
    std::uint64_t retryPasses = 0;
    std::vector<MetricsCollector::AgentSums> agents; // index 0 -> agent 1
};

Snapshot
takeSnapshot(const EventQueue &queue, const Bus &bus,
             const MetricsCollector &collector, int num_agents)
{
    Snapshot s;
    s.now = queue.now();
    s.totalCompletions = collector.totalCompletions();
    s.busyTicks = bus.busyTicks();
    s.passes = bus.arbitrationPasses();
    s.retryPasses = bus.retryPasses();
    s.agents.reserve(static_cast<std::size_t>(num_agents));
    for (AgentId a = 1; a <= num_agents; ++a)
        s.agents.push_back(collector.agent(a));
    return s;
}

BatchStats
batchFromDelta(const Snapshot &prev, const Snapshot &cur,
               const RunningStats &wait_stats)
{
    BatchStats b;
    b.duration = ticksToUnits(cur.now - prev.now);
    BUSARB_ASSERT(b.duration > 0.0, "empty batch");
    const auto n = cur.totalCompletions - prev.totalCompletions;
    BUSARB_ASSERT(wait_stats.count() == n,
                  "batch wait accumulator out of sync: ",
                  wait_stats.count(), " observations vs ", n,
                  " completions");
    if (n > 0) {
        b.waitMean = wait_stats.mean();
        // Batch-local Welford: the variance is a sum of non-negative
        // increments, so it cannot be driven negative by cancellation
        // the way E[x^2] - E[x]^2 over cumulative sums can.
        const double var = wait_stats.variancePopulation();
        BUSARB_ASSERT(var >= 0.0, "negative batch wait variance: ", var);
        b.waitStddev = std::sqrt(var);
    }
    b.utilization =
        static_cast<double>(cur.busyTicks - prev.busyTicks) /
        static_cast<double>(cur.now - prev.now);
    b.passes = cur.passes - prev.passes;
    b.retryPasses = cur.retryPasses - prev.retryPasses;
    const std::size_t num_agents = cur.agents.size();
    b.completions.resize(num_agents);
    b.productive.resize(num_agents);
    b.cycle.resize(num_agents);
    b.waitSum.resize(num_agents);
    b.overlapSum.resize(num_agents);
    for (std::size_t i = 0; i < num_agents; ++i) {
        const auto &pa = prev.agents[i];
        const auto &ca = cur.agents[i];
        b.completions[i] = ca.completions - pa.completions;
        const double think = ca.thinkSum - pa.thinkSum;
        const double wait = ca.waitSum - pa.waitSum;
        const double overlap = ca.overlapSum - pa.overlapSum;
        b.waitSum[i] = wait;
        b.overlapSum[i] = overlap;
        b.productive[i] = think + overlap;
        b.cycle[i] = think + wait;
    }
    return b;
}

/** Fill the per-run metrics registry from the final simulation state. */
void
populateMetrics(MetricsRegistry &m, const ScenarioConfig &config,
                const EventQueue &queue, const Bus &bus,
                const MetricsCollector &collector)
{
    m.counter("bus.completions").add(bus.completedTransactions());
    m.counter("bus.passes").add(bus.arbitrationPasses());
    m.counter("bus.retry_passes").add(bus.retryPasses());
    m.counter("bus.busy_ticks")
        .add(static_cast<std::uint64_t>(bus.busyTicks()));
    m.counter("bus.exposed_arb_ticks")
        .add(static_cast<std::uint64_t>(bus.exposedArbitrationTicks()));
    m.gauge("bus.utilization")
        .set(queue.now() > 0
                 ? static_cast<double>(bus.busyTicks()) /
                       static_cast<double>(queue.now())
                 : 0.0);
    m.gauge("sim.final_units").set(ticksToUnits(queue.now()));
    const std::uint64_t n = collector.totalCompletions();
    if (n > 0) {
        m.gauge("wait.mean").set(collector.totalWaitSum() /
                                 static_cast<double>(n));
    }
    for (AgentId a = 1; a <= config.numAgents; ++a) {
        const MetricsCollector::AgentSums &sums = collector.agent(a);
        const std::string prefix =
            agentMetricPrefix(a, config.numAgents);
        m.counter(prefix + "completions").add(sums.completions);
        if (sums.completions > 0) {
            m.gauge(prefix + "wait_mean")
                .set(sums.waitSum /
                     static_cast<double>(sums.completions));
            m.gauge(prefix + "queue_wait_mean")
                .set(sums.queueWaitSum /
                     static_cast<double>(sums.completions));
        }
    }
}

/**
 * The observer sinks of one run, built from ScenarioConfig::observe
 * plus the caller's tracer. Each run owns its sinks, so captures are
 * hermetic (JobPool-safe and byte-identical at any --jobs count).
 */
class RunSinks
{
  public:
    RunSinks(const ScenarioConfig &config, const std::string &label)
    {
        const ObserverConfig &o = config.observe;
        if (o.captureTrace) {
            trace_ = std::make_unique<BinaryTraceWriter>(config.numAgents,
                                                         label);
            fanout_.add(trace_.get());
        }
        if (o.flightRecorder > 0) {
            recorder_ = std::make_unique<FlightRecorder>(
                static_cast<std::size_t>(o.flightRecorder));
            panicDump_ =
                std::make_unique<ScopedFlightRecorderDump>(*recorder_);
            fanout_.add(recorder_.get());
        }
        if (o.auditsFairness()) {
            auditor_ = std::make_unique<FairnessAuditor>(
                FairnessAuditorConfig::from(o, config.numAgents, label));
            fanout_.add(auditor_.get());
        }
        fanout_.add(config.tracer);
        if (o.monitorsHealth()) {
            RunHealthConfig hc;
            hc.convergence.confidence = config.confidence;
            hc.convergence.relHalfWidthTarget = o.healthRelHw;
            hc.convergence.lag1Threshold = o.healthLag1;
            hc.label = label;
            hc.snapshots = o.healthSnapshots;
            health_ = std::make_unique<RunHealthMonitor>(hc);
        }
    }

    // The bus holds the address of a sink, and the fan-out holds the
    // addresses of the owned sinks.
    RunSinks(const RunSinks &) = delete;
    RunSinks &operator=(const RunSinks &) = delete;

    /** @return Null without sinks; one sink directly, else the fan-out. */
    BusTracer *
    tracer()
    {
        if (fanout_.size() <= 1)
            return fanout_.size() == 1 ? fanout_.sink(0) : nullptr;
        return &fanout_;
    }

    /**
     * Measurement starts (`batch` null) or a batch ended: stream
     * cumulative counters into the trace as Perfetto progress tracks,
     * and feed the batch to the health monitor.
     */
    void
    onBatchBoundary(const Bus &bus, Tick now, const BatchStats *batch)
    {
        if (health_ != nullptr && batch != nullptr)
            health_->onBatch(ticksToUnits(now), batch->waitMean,
                             batch->utilization);
        if (trace_ == nullptr)
            return;
        static const char *const kNames[] = {
            "bus.completions", "bus.passes", "bus.retry_passes"};
        if (batch == nullptr)
            for (int i = 0; i < 3; ++i)
                counterIds_[i] = trace_->defineCounter(kNames[i]);
        const std::uint64_t values[] = {bus.completedTransactions(),
                                        bus.arbitrationPasses(),
                                        bus.retryPasses()};
        for (int i = 0; i < 3; ++i)
            trace_->counterUpdate(counterIds_[i], now, values[i]);
    }

    /** The open-loop source outran the bus. */
    void
    noteSaturated()
    {
        if (health_ != nullptr)
            health_->noteSaturated();
    }

    /** Close every sink and move its output into `result`. */
    void
    finish(Tick now, ScenarioResult &result)
    {
        if (trace_ != nullptr)
            result.binaryTrace = trace_->finish();
        if (auditor_ != nullptr) {
            auditor_->finish(now);
            auditor_->exportMetrics(result.metrics);
            result.fairnessSnapshots = auditor_->snapshots();
        }
        if (health_ != nullptr) {
            health_->exportMetrics(result.metrics);
            result.health = health_->report();
            result.healthSnapshots = health_->snapshots();
        }
    }

  private:
    FanoutTracer fanout_;
    std::unique_ptr<BinaryTraceWriter> trace_;
    std::unique_ptr<FlightRecorder> recorder_;
    std::unique_ptr<ScopedFlightRecorderDump> panicDump_;
    std::unique_ptr<FairnessAuditor> auditor_;
    std::unique_ptr<RunHealthMonitor> health_;
    std::uint64_t counterIds_[3] = {};
};

} // namespace

ScenarioResult
runScenario(const ScenarioConfig &config, const ProtocolFactory &factory)
{
    BUSARB_ASSERT(static_cast<int>(config.agents.size()) ==
                  config.numAgents,
                  "agent traits count (", config.agents.size(),
                  ") != numAgents (", config.numAgents, ")");
    BUSARB_ASSERT(config.numBatches >= 1, "need at least one batch");
    BUSARB_ASSERT(config.batchSize >= 1, "batch size must be >= 1");

    // Seed the calendar geometry from the scenario's expected live depth:
    // every agent keeps about one event in flight. The bus's own events
    // run from the queue's slots and never enter the calendar.
    EventQueue queue(config.eventQueuePolicy,
                     CalendarTuning::forExpectedDepth(
                         static_cast<std::size_t>(config.numAgents)));
    std::unique_ptr<ArbitrationProtocol> protocol = factory();
    BUSARB_ASSERT(protocol != nullptr, "protocol factory returned null");
    const std::string protocol_name = protocol->name();
    Bus bus(queue, std::move(protocol), config.numAgents, config.bus);

    RunSinks sinks(config, protocol_name);
    bus.setTracer(sinks.tracer());

    MetricsCollector collector(config.numAgents);

    // Self-profiler: one per run, owned here, so no hot-path locks. Its
    // wall-clock phases are host-only; the simulation never reads them.
    Profiler profiler;
    const bool profile = config.profile;

    // The workload seam: the scenario's `source=` spec decides who
    // generates traffic. `closed` reproduces the historical agent
    // wiring bit-for-bit; open-loop and trace sources plug in here
    // without the runner knowing their shape.
    std::unique_ptr<WorkloadSource> source =
        buildWorkloadSource(config, queue, bus);
    source->setThinkSink(&collector);
    for (AgentId a = 1; a <= config.numAgents; ++a) {
        collector.setOverlapLimit(
            a, config.agents[static_cast<std::size_t>(a - 1)]
                   .overlapLimit);
    }

    const std::uint64_t needed_completions =
        config.warmup +
        static_cast<std::uint64_t>(config.numBatches) * config.batchSize;
    if (source->capacity() > 0) {
        BUSARB_ASSERT(source->capacity() >= needed_completions,
                      "workload source supplies ", source->capacity(),
                      " requests but the run needs ",
                      needed_completions,
                      " completions; the simulation would deadlock");
    }

    // Route service notifications to the collector first (so waits are
    // recorded), then to the source (closed loops schedule the next
    // request of the completed agent's token from it).
    struct Dispatcher : BusObserver
    {
        MetricsCollector *collector;
        WorkloadSource *source;

        void
        onServiceStart(const Request &req, Tick now) override
        {
            collector->onServiceStart(req, now);
        }

        void
        onServiceEnd(const Request &req, Tick now) override
        {
            collector->onServiceEnd(req, now);
            source->onServiceEnd(req.agent, now);
        }
    };
    Dispatcher dispatcher;
    dispatcher.collector = &collector;
    dispatcher.source = source.get();
    bus.setObserver(&dispatcher);

    source->start();

    const auto run_until = [&](std::uint64_t target) {
        while (collector.totalCompletions() < target) {
            const bool progressed = queue.runOne();
            BUSARB_ASSERT(progressed, "simulation deadlocked at tick ",
                          queue.now());
        }
    };

    {
        ProfilePhaseTimer t(profile ? &profiler : nullptr,
                            RunPhase::kWarmup);
        run_until(config.warmup);
    }
    collector.enableHistogram();

    ScenarioResult result;
    result.protocolName = protocol_name;
    result.workloadSpec = config.workloadSpec;
    result.numAgents = config.numAgents;
    result.confidence = config.confidence;

    // Open-loop runs can outrun the bus; snapshot the issue counter at
    // the measurement boundary so backlog growth (not its warm-up
    // level) drives the saturation verdict.
    const bool open_loop = source->openLoop();
    const std::uint64_t measure_start_issued = source->issued();
    const Tick measure_start_tick = queue.now();

    collector.beginBatch();
    Snapshot prev =
        takeSnapshot(queue, bus, collector, config.numAgents);
    sinks.onBatchBoundary(bus, queue.now(), nullptr);
    {
        ProfilePhaseTimer t(profile ? &profiler : nullptr,
                            RunPhase::kMeasure);
        for (int b = 0; b < config.numBatches; ++b) {
            run_until(config.warmup +
                      (static_cast<std::uint64_t>(b) + 1) *
                          config.batchSize);
            const Snapshot cur =
                takeSnapshot(queue, bus, collector, config.numAgents);
            result.batches.push_back(
                batchFromDelta(prev, cur, collector.batchWaitStats()));
            collector.beginBatch();
            prev = cur;
            sinks.onBatchBoundary(bus, queue.now(),
                                  &result.batches.back());
        }
    }
    if (open_loop) {
        WorkloadStats &w = result.workload;
        w.openLoop = true;
        w.issued = source->issued();
        const std::uint64_t completed = collector.totalCompletions();
        BUSARB_ASSERT(w.issued >= completed,
                      "more completions than issued requests");
        w.finalBacklog = w.issued - completed;
        const double measured_units =
            ticksToUnits(queue.now() - measure_start_tick);
        const std::uint64_t measured_completions =
            completed - config.warmup;
        w.offeredRate = static_cast<double>(w.issued -
                                            measure_start_issued) /
                        measured_units;
        w.carriedRate =
            static_cast<double>(measured_completions) / measured_units;
        // Saturation: the backlog at the end of measurement exceeds the
        // backlog at its start by more than a noise floor. A stable
        // queue fluctuates around its stationary level; an unstable one
        // grows linearly, so growth of 5% of the measured completions
        // (64 minimum, for short runs) separates the two cleanly.
        const std::uint64_t backlog_start =
            measure_start_issued - config.warmup;
        const std::uint64_t growth = w.finalBacklog > backlog_start
                                         ? w.finalBacklog - backlog_start
                                         : 0;
        const std::uint64_t noise_floor =
            measured_completions / 20 > 64 ? measured_completions / 20
                                           : 64;
        w.saturated = growth > noise_floor;
        if (w.saturated)
            sinks.noteSaturated();
    }
    ProfilePhaseTimer drain_timer(profile ? &profiler : nullptr,
                                  RunPhase::kDrain);
    result.waitHistogram = collector.histogram();
    populateMetrics(result.metrics, config, queue, bus, collector);
    // workload.* observables exist only for open-loop sources: closed
    // loops cannot build backlog, and the closed path's artifacts must
    // stay byte-identical to pre-seam runs.
    if (open_loop) {
        MetricsRegistry &m = result.metrics;
        const WorkloadStats &w = result.workload;
        m.counter("workload.issued").add(w.issued);
        m.counter("workload.backlog").add(w.finalBacklog);
        m.gauge("workload.offered_rate").set(w.offeredRate);
        m.gauge("workload.carried_rate").set(w.carriedRate);
        m.gauge("workload.saturated").set(w.saturated ? 1.0 : 0.0);
        for (AgentId a = 1; a <= config.numAgents; ++a) {
            const std::uint64_t agent_backlog =
                source->issuedBy(a) - collector.agent(a).completions;
            m.gauge(agentMetricPrefix(a, config.numAgents) + "backlog")
                .set(static_cast<double>(agent_backlog));
        }
    }
    if (config.workloadSpec != "closed")
        result.metrics.setAnnotation("workload.spec",
                                     config.workloadSpec);
    sinks.finish(queue.now(), result);
    if (profile) {
        profiler.finish(queue, bus.arbitrationPasses(),
                        bus.retryPasses(), bus.completedTransactions());
        result.profile = profiler.report();
        result.profile.exportMetrics(result.metrics);
    }
    return result;
}

std::vector<ScenarioResult>
runScenarioGrid(const std::vector<GridJob> &grid, int jobs,
                const std::function<void(std::size_t, std::size_t)>
                    &on_progress)
{
    using Clock = std::chrono::steady_clock;
    const auto timed_run = [](const GridJob &job) {
        const auto start = Clock::now();
        ScenarioResult result = runScenario(job.config, job.factory);
        result.elapsedMs =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                .count();
        result.spec = job.spec;
        if (!job.spec.empty())
            result.metrics.setAnnotation("protocol.spec", job.spec);
        return result;
    };

    // Progress calls are serialized so the callback can write to a
    // stream without interleaving; the counter is the only shared
    // state, and it never influences results.
    std::mutex progress_mutex;
    std::size_t done = 0;
    const std::size_t total = grid.size();
    const auto report_progress = [&] {
        if (!on_progress)
            return;
        const std::scoped_lock lock(progress_mutex);
        ++done;
        on_progress(done, total);
    };

    std::vector<ScenarioResult> results(grid.size());
    const int workers = resolveJobCount(jobs);
    if (workers == 1 || grid.size() <= 1) {
        for (std::size_t i = 0; i < grid.size(); ++i) {
            results[i] = timed_run(grid[i]);
            report_progress();
        }
        return results;
    }

    // Each cell owns its slot in the pre-sized vector, so workers never
    // touch the same element and submission order is preserved without
    // any post-hoc sorting.
    JobPool pool(workers);
    for (std::size_t i = 0; i < grid.size(); ++i) {
        pool.submit([&grid, &results, &timed_run, &report_progress, i] {
            results[i] = timed_run(grid[i]);
            report_progress();
        });
    }
    pool.wait();
    return results;
}

// ------------------------------------------------------- result helpers

namespace {

/** Batch means (Section 4.1) over one value per batch. */
template <typename PerBatch>
Estimate
batchMeans(const ScenarioResult &r, PerBatch per_batch)
{
    BatchMeans bm;
    for (const BatchStats &b : r.batches)
        bm.addBatch(per_batch(b));
    return bm.estimate(r.confidence);
}

/** @return `agent`'s index in the per-agent series. */
std::size_t
agentIndex(const ScenarioResult &r, AgentId agent)
{
    BUSARB_ASSERT(agent >= 1 && agent <= r.numAgents,
                  "agent id out of range: ", agent);
    return static_cast<std::size_t>(agent - 1);
}

} // namespace

Estimate
ScenarioResult::throughput() const
{
    return batchMeans(*this, [](const BatchStats &b) {
        std::uint64_t total = 0;
        for (auto c : b.completions)
            total += c;
        return static_cast<double>(total) / b.duration;
    });
}

Estimate
ScenarioResult::utilization() const
{
    return batchMeans(*this,
                      [](const BatchStats &b) { return b.utilization; });
}

Estimate
ScenarioResult::agentThroughput(AgentId agent) const
{
    const std::size_t idx = agentIndex(*this, agent);
    return batchMeans(*this, [idx](const BatchStats &b) {
        return static_cast<double>(b.completions[idx]) / b.duration;
    });
}

Estimate
ScenarioResult::throughputRatio(AgentId numer, AgentId denom) const
{
    const std::size_t n = agentIndex(*this, numer);
    const std::size_t d = agentIndex(*this, denom);
    std::vector<double> num, den;
    bool starved = false;
    double num_total = 0.0;
    double den_total = 0.0;
    for (const auto &b : batches) {
        num.push_back(static_cast<double>(b.completions[n]));
        den.push_back(static_cast<double>(b.completions[d]));
        num_total += num.back();
        den_total += den.back();
        if (den.back() == 0.0)
            starved = true;
    }
    if (starved) {
        Estimate e;
        e.value = (den_total == 0.0)
                      ? std::numeric_limits<double>::infinity()
                      : num_total / den_total;
        return e;
    }
    return ratioEstimate(num, den, confidence);
}

Estimate
ScenarioResult::meanWait() const
{
    return batchMeans(*this,
                      [](const BatchStats &b) { return b.waitMean; });
}

Estimate
ScenarioResult::agentMeanWait(AgentId agent) const
{
    const std::size_t idx = agentIndex(*this, agent);
    return batchMeans(*this, [agent, idx](const BatchStats &b) {
        BUSARB_ASSERT(b.completions[idx] > 0,
                      "agent ", agent, " completed nothing in a batch");
        return b.waitSum[idx] / static_cast<double>(b.completions[idx]);
    });
}

Estimate
ScenarioResult::waitStddev() const
{
    return batchMeans(*this,
                      [](const BatchStats &b) { return b.waitStddev; });
}

Estimate
ScenarioResult::productivity() const
{
    return batchMeans(*this, [](const BatchStats &b) {
        double productive = 0.0;
        double cycle = 0.0;
        for (std::size_t i = 0; i < b.productive.size(); ++i) {
            productive += b.productive[i];
            cycle += b.cycle[i];
        }
        BUSARB_ASSERT(cycle > 0.0, "empty batch cycle time");
        return productive / cycle;
    });
}

Estimate
ScenarioResult::agentProductivity(AgentId agent) const
{
    const std::size_t idx = agentIndex(*this, agent);
    return batchMeans(*this, [agent, idx](const BatchStats &b) {
        BUSARB_ASSERT(b.cycle[idx] > 0.0,
                      "agent ", agent, " has no cycle time in a batch");
        return b.productive[idx] / b.cycle[idx];
    });
}

Estimate
ScenarioResult::residualWait() const
{
    return batchMeans(*this, [](const BatchStats &b) {
        double wait = 0.0;
        double overlap = 0.0;
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < b.waitSum.size(); ++i) {
            wait += b.waitSum[i];
            overlap += b.overlapSum[i];
            n += b.completions[i];
        }
        BUSARB_ASSERT(n > 0, "batch without completions");
        return (wait - overlap) / static_cast<double>(n);
    });
}

double
ScenarioResult::waitPercentile(double p) const
{
    BUSARB_ASSERT(waitHistogram.count() > 0,
                  "waitPercentile of a result with no measured waits");
    return waitHistogram.quantile(p);
}

Estimate
ScenarioResult::retryPassFraction() const
{
    return batchMeans(*this, [](const BatchStats &b) {
        return b.passes == 0 ? 0.0
                             : static_cast<double>(b.retryPasses) /
                                   static_cast<double>(b.passes);
    });
}

} // namespace busarb
