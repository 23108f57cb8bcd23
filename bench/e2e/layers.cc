/**
 * @file
 * busarb_bench_layers — the traced, in-process pass of the end-to-end
 * benchmark; busarb_bench runs it for --trace 1.
 *
 *   busarb_bench_layers --grid run.grid --name paper-t41 --seconds 15 \
 *       --work DIR --spans-dir DIR [busarb_sweep observer flags]
 *
 * Each rep runs every cell of the grid twice: untraced, exactly as
 * busarb_sweep runs it, and traced, with the protocol behind a timing
 * decorator and the benchmark's own binary-trace writer and fairness
 * auditor attached through ScenarioConfig::tracer behind a timing
 * fan-out. A cell whose batch series differs between the two runs fails:
 * the wrappers must be transparent. Reps repeat until --seconds have
 * passed (at least one). Probes then time the event queue, the
 * workload's inter-request draw, the metrics collector, the metrics
 * export, the result codec and the checkpoint manifest on their own.
 *
 * The wrappers count every call and time one call in kTimeEvery of each
 * kind: a clock read costs about as much as the calls it would time, so
 * timing all of them would bury the layers under the timer. The timer's
 * own cost is measured and subtracted.
 *
 * The last stdout line is one JSON object: attempted, failed, reps,
 * metrics (per-layer values, medians over reps) and notes. spans.json
 * (Chrome trace format; open it in Perfetto) and layers.json go to
 * --spans-dir.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dist/manifest.hh"
#include "dist/result_codec.hh"
#include "experiment/cli.hh"
#include "experiment/metrics.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"
#include "experiment/workload_registry.hh"
#include "json.hh"
#include "obs/binary_trace.hh"
#include "obs/fairness_auditor.hh"
#include "random/distributions.hh"
#include "random/rng.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "workload/agent_traits.hh"
#include "workload/mmpp_process.hh"

namespace {

using namespace busarb;
using Clock = std::chrono::steady_clock;

constexpr const char *kProgram = "busarb_bench_layers";

std::int64_t
nsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// --------------------------------------------------------------- spans

/** Wrapped calls; each is a child span of the cell that made it. */
enum Kind : std::size_t {
    kPost,
    kWantsPass,
    kBeginPass,
    kCompletePass,
    kTenureStart,
    kTenureEnd,
    kSettle,
    kTraceSink,
    kFairnessSink,
    kNumKinds
};

constexpr std::array<const char *, kNumKinds> kKindNames = {
    "protocol.post",         "protocol.wants_pass",
    "protocol.begin_pass",   "protocol.complete_pass",
    "protocol.tenure_start", "protocol.tenure_end",
    "bus.settle",            "obs.trace",
    "obs.fairness"};

/** One call in this many of each kind is timed; all are counted. */
constexpr std::uint64_t kTimeEvery = 16;

/** Timed spans kept for spans.json, per kind and cell. */
constexpr std::size_t kSampledSpans = 256;

struct Span
{
    std::int64_t start = 0; ///< ns since the traced pass began
    std::int64_t dur = 0;
};

/** Calls, timed calls, their time and sampled spans of one cell. */
struct CellLog
{
    Clock::time_point epoch;
    bool keepSpans = false;
    std::array<std::uint64_t, kNumKinds> calls{};
    std::array<std::uint64_t, kNumKinds> timed{};
    std::array<std::int64_t, kNumKinds> ns{};
    std::array<std::vector<Span>, kNumKinds> spans;

    /** Count a call. @return True when this one is to be timed. */
    bool
    admit(Kind kind)
    {
        return calls[kind]++ % kTimeEvery == 0;
    }

    void
    record(Kind kind, Clock::time_point t0, Clock::time_point t1)
    {
        const std::int64_t d = nsBetween(t0, t1);
        ++timed[kind];
        ns[kind] += d;
        if (keepSpans && spans[kind].size() < kSampledSpans)
            spans[kind].push_back({nsBetween(epoch, t0), d});
    }
};

/** Run `call`, timing it when `log` admits it. */
template <typename F>
decltype(auto)
timedCall(CellLog &log, Kind kind, F &&call)
{
    if (!log.admit(kind))
        return call();
    struct Stop
    {
        CellLog &log;
        Kind kind;
        Clock::time_point t0;
        ~Stop() { log.record(kind, t0, Clock::now()); }
    };
    const Stop stop{log, kind, Clock::now()};
    return call();
}

/**
 * What timing one call costs by itself, measured on empty timed calls:
 * `inside` lands in the call's own span, `outside` in the enclosing cell
 * span around it.
 */
struct TimerCost
{
    double inside = 0.0;
    double outside = 0.0;
};

TimerCost
calibrate()
{
    constexpr std::size_t kCalls = 1000000;
    std::vector<double> inside;
    std::vector<double> outside;
    for (int round = 0; round < 5; ++round) {
        CellLog log;
        const auto t0 = Clock::now();
        for (std::size_t i = 0; i < kCalls; ++i)
            timedCall(log, kPost, [] {});
        const double total = static_cast<double>(nsBetween(t0, Clock::now()));
        const double timed = static_cast<double>(log.timed[kPost]);
        const double in = static_cast<double>(log.ns[kPost]);
        inside.push_back(in / timed);
        // The untimed calls' counting cost is spread over the timed ones.
        outside.push_back((total - in) / timed);
    }
    return {median(inside), median(outside)};
}

/**
 * Forwards every call the bus makes into a protocol, counting and timing
 * it, like ProtocolChecker forwards and checks.
 */
class TimedProtocol final : public ArbitrationProtocol
{
  public:
    TimedProtocol(std::unique_ptr<ArbitrationProtocol> inner, CellLog &log)
        : inner_(std::move(inner)), log_(log)
    {
    }

    void reset(int num_agents) override { inner_->reset(num_agents); }

    void
    requestPosted(const Request &req) override
    {
        timedCall(log_, kPost, [&] { inner_->requestPosted(req); });
    }

    bool
    wantsPass() const override
    {
        return timedCall(log_, kWantsPass,
                         [&] { return inner_->wantsPass(); });
    }

    void
    beginPass(Tick now) override
    {
        timedCall(log_, kBeginPass, [&] { inner_->beginPass(now); });
    }

    PassResult
    completePass(Tick now) override
    {
        return timedCall(log_, kCompletePass,
                         [&] { return inner_->completePass(now); });
    }

    void
    tenureStarted(const Request &req, Tick now) override
    {
        timedCall(log_, kTenureStart,
                  [&] { inner_->tenureStarted(req, now); });
    }

    void
    tenureEnded(const Request &req, Tick now) override
    {
        timedCall(log_, kTenureEnd, [&] { inner_->tenureEnded(req, now); });
    }

    std::string name() const override { return inner_->name(); }

    int
    settleRoundsForPass() const override
    {
        return timedCall(log_, kSettle,
                         [&] { return inner_->settleRoundsForPass(); });
    }

    int
    arbitrationLineCount() const override
    {
        return inner_->arbitrationLineCount();
    }

  private:
    std::unique_ptr<ArbitrationProtocol> inner_;
    CellLog &log_;
};

/** Forwards bus events to the benchmark's two sinks, timing each. */
class TimedSinks final : public BusTracer
{
  public:
    TimedSinks(CellLog &log, BusTracer &trace, BusTracer &fairness)
        : log_(log), trace_(trace), fairness_(fairness)
    {
    }

    void
    onRequestPosted(const Request &req) override
    {
        each([&](BusTracer &t) { t.onRequestPosted(req); });
    }

    void
    onPassStarted(Tick now) override
    {
        each([&](BusTracer &t) { t.onPassStarted(now); });
    }

    void
    onPassResolved(Tick now, Tick pass_start, const Request &winner,
                   bool retry) override
    {
        each([&](BusTracer &t) {
            t.onPassResolved(now, pass_start, winner, retry);
        });
    }

    void
    onTenureStarted(const Request &req, Tick now) override
    {
        each([&](BusTracer &t) { t.onTenureStarted(req, now); });
    }

    void
    onTenureEnded(const Request &req, Tick now) override
    {
        each([&](BusTracer &t) { t.onTenureEnded(req, now); });
    }

  private:
    template <typename F>
    void
    each(F &&call)
    {
        timedCall(log_, kTraceSink, [&] { call(trace_); });
        timedCall(log_, kFairnessSink, [&] { call(fairness_); });
    }

    CellLog &log_;
    BusTracer &trace_;
    BusTracer &fairness_;
};

/** Sums over traced cells, with per-kind time estimated from samples. */
struct Totals
{
    double cellNs = 0.0;
    double tx = 0.0;
    std::array<double, kNumKinds> calls{};
    std::array<double, kNumKinds> timed{};
    std::array<double, kNumKinds> ns{};

    void
    add(const CellLog &log, double cell_ns, double cell_tx)
    {
        cellNs += cell_ns;
        tx += cell_tx;
        for (std::size_t k = 0; k < kNumKinds; ++k) {
            calls[k] += static_cast<double>(log.calls[k]);
            timed[k] += static_cast<double>(log.timed[k]);
            ns[k] += static_cast<double>(log.ns[k]);
        }
    }

    /** @return Mean ns of one `kind` call, timer excluded. */
    double
    perCall(Kind kind, const TimerCost &timer) const
    {
        return ns[kind] / timed[kind] - timer.inside;
    }

    /** @return Estimated ns spent in all `kind` calls. */
    double
    net(Kind kind, const TimerCost &timer) const
    {
        return timed[kind] > 0 ? perCall(kind, timer) * calls[kind] : 0.0;
    }

    double
    perPass(const TimerCost &timer) const
    {
        return perCall(kBeginPass, timer) + perCall(kCompletePass, timer);
    }

    double
    protocolNs(const TimerCost &timer) const
    {
        double total = 0.0;
        for (std::size_t k = kPost; k <= kSettle; ++k)
            total += net(static_cast<Kind>(k), timer);
        return total;
    }

    /** @return What the timed calls' clock reads added to the cells. */
    double
    timerNs(const TimerCost &timer) const
    {
        double total = 0.0;
        for (const double t : timed)
            total += t * (timer.inside + timer.outside);
        return total;
    }

    double
    workNs(const TimerCost &timer) const
    {
        return cellNs - timerNs(timer);
    }

    /** @return Cell time outside every child call and the timer. */
    double
    selfNs(const TimerCost &timer) const
    {
        double self = workNs(timer);
        for (std::size_t k = 0; k < kNumKinds; ++k)
            self -= net(static_cast<Kind>(k), timer);
        return self;
    }
};

// -------------------------------------------------------------- probes

/** Keeps probe results observable so the probed work is not elided. */
volatile double g_sink = 0.0;

/** @return Median ns per iteration of `body` over five timed rounds. */
double
probe(std::size_t iterations, const std::function<void(std::size_t)> &body)
{
    std::vector<double> rounds;
    body(iterations / 10); // warm caches and lazy state
    for (int r = 0; r < 5; ++r) {
        const auto t0 = Clock::now();
        body(iterations);
        rounds.push_back(static_cast<double>(nsBetween(t0, Clock::now())) /
                         static_cast<double>(iterations));
    }
    return median(rounds);
}

/** An event that reschedules itself, keeping the queue's depth fixed. */
struct Reschedule
{
    EventQueue *queue;
    Rng *rng;
    std::uint64_t span;

    void
    operator()() const
    {
        queue->scheduleIn(static_cast<Tick>(rng->below(span)) + 1, *this);
    }
};

/** ns per schedule + pop at the workload's live depth. */
double
probeQueue(std::size_t depth)
{
    EventQueue queue(EventQueuePolicy::kCalendar,
                     CalendarTuning::forExpectedDepth(depth));
    Rng rng(depth);
    const auto span = static_cast<std::uint64_t>(depth) * kTicksPerUnit;
    for (std::size_t i = 0; i < depth; ++i)
        Reschedule{&queue, &rng, span}();
    return probe(400000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            queue.runOne();
    });
}

/**
 * Agent 1's inter-request distribution in the cell `config` describes:
 * the think time of a closed source, or the arrival process of an open
 * one with the parameters the workload registry resolves and the rate
 * split its open source applies.
 */
std::unique_ptr<Distribution>
workloadDraw(const ScenarioConfig &config)
{
    const AgentTraits &agent = config.agents.front();
    const WorkloadRegistry &registry = WorkloadRegistry::builtin();
    WorkloadSpec source;
    std::string error;
    const bool parsed =
        registry.parseSpec(config.workloadSpec, source, error);
    BUSARB_ASSERT(parsed, error); // the grid has already validated it
    if (source.key != "open")
        return makeDistributionByCv(agent.meanInterrequest, agent.cv);

    const ParamValues values = ParamValues::resolve(
        "workload '" + source.key + "'", registry.find(source.key)->params,
        source);
    const double S = config.bus.transactionTime;
    const double rho = loadForInterrequest(agent.meanInterrequest, S);
    double lambda = rho / S;
    if (const double rate = values.getDouble("rate"); rate > 0.0) {
        double total_load = 0.0;
        for (const AgentTraits &traits : config.agents)
            total_load += loadForInterrequest(traits.meanInterrequest, S);
        lambda = rate * rho / total_load;
    }
    const std::string dist = values.getEnum("dist");
    if (dist == "mmpp") {
        const double burst = values.getDouble("burst");
        const double gap = values.getDouble("gap");
        const double ratio = values.getDouble("ratio");
        const double p_on = burst / (burst + gap);
        MmppParams params;
        params.rateOff = lambda / (p_on * ratio + (1.0 - p_on));
        params.rateOn = ratio * params.rateOff;
        params.meanOnTime = burst;
        params.meanOffTime = gap;
        return std::make_unique<MmppProcess>(params);
    }
    if (dist == "pareto")
        return std::make_unique<ParetoDistribution>(
            1.0 / lambda, values.getDouble("alpha"));
    return std::make_unique<ExponentialDistribution>(1.0 / lambda);
}

double
probeDraw(const Distribution &dist)
{
    Rng rng(7);
    double sum = 0.0;
    const double ns = probe(1000000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            sum += dist.sample(rng);
    });
    g_sink = sum;
    return ns;
}

/** ns per completion through MetricsCollector (start + end). */
double
probeCollector(int agents)
{
    MetricsCollector collector(agents);
    Tick now = 0;
    std::uint64_t seq = 0;
    const double ns = probe(1000000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            Request req;
            req.agent = static_cast<AgentId>(
                            i % static_cast<std::size_t>(agents)) +
                        1;
            req.issued = now;
            req.seq = ++seq;
            now += kTicksPerUnit / 2;
            collector.onServiceStart(req, now);
            now += kTicksPerUnit;
            collector.onServiceEnd(req, now);
        }
    });
    g_sink = collector.totalWaitSum();
    return ns;
}

/**
 * ns per settleRoundsForPass() of rr1 with all `agents` contending: the
 * settle layer's cost where the bus does not model settle timing and so
 * never asks.
 */
double
probeSettle(int agents)
{
    const auto protocol = protocolFactoryOrExit(kProgram, "rr1")();
    protocol->reset(agents);
    for (AgentId a = 1; a <= agents; ++a) {
        Request req;
        req.agent = a;
        req.seq = static_cast<std::uint64_t>(a);
        protocol->requestPosted(req);
    }
    protocol->beginPass(0);
    int rounds = 0;
    const double ns = probe(200000, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            rounds += protocol->settleRoundsForPass();
    });
    g_sink = rounds;
    return ns;
}

// --------------------------------------------------------- the passes

bool
sameBatches(const ScenarioResult &a, const ScenarioResult &b)
{
    if (a.batches.size() != b.batches.size())
        return false;
    for (std::size_t i = 0; i < a.batches.size(); ++i) {
        const BatchStats &x = a.batches[i];
        const BatchStats &y = b.batches[i];
        if (x.duration != y.duration || x.completions != y.completions ||
            x.waitMean != y.waitMean || x.waitStddev != y.waitStddev ||
            x.productive != y.productive || x.cycle != y.cycle ||
            x.waitSum != y.waitSum || x.overlapSum != y.overlapSum ||
            x.utilization != y.utilization || x.passes != y.passes ||
            x.retryPasses != y.retryPasses)
            return false;
    }
    return true;
}

/** @return The src/ module a protocol key is implemented in. */
const char *
protocolLayer(const std::string &key)
{
    static const std::set<std::string> kBaseline = {
        "aap1", "aap2", "fixed", "central-rr", "central-fcfs", "ticket"};
    return kBaseline.count(key) ? "baseline" : "core";
}

/** One traced cell, kept from the first rep for the output files. */
struct CellTrace
{
    std::string key;
    std::string load;
    std::int64_t start = 0;
    std::int64_t dur = 0;
    double tx = 0.0;
    CellLog log;
};

/** Sums of one rep: all cells, and per module and protocol key. */
struct Rep
{
    double untracedNs = 0.0;
    double events = 0.0;
    double passes = 0.0;
    double retries = 0.0;
    double maxDepth = 0.0;
    double traceBytes = 0.0;
    double snapshotBytes = 0.0;
    Totals all;
    std::map<std::string, Totals> groups;
};

/**
 * Run one cell with the timing wrappers and the benchmark's sinks. The
 * cell span (start and duration in `cell`) covers runScenario only.
 */
ScenarioResult
runTraced(const GridJob &job, CellTrace &cell, Rep &rep)
{
    ScenarioConfig config = job.config;
    BinaryTraceWriter writer(config.numAgents, cell.key);
    FairnessAuditorConfig fc;
    fc.numAgents = config.numAgents;
    fc.snapshotEveryTicks = 1000 * kTicksPerUnit;
    fc.label = cell.key;
    FairnessAuditor auditor(fc);
    TimedSinks sinks(cell.log, writer, auditor);
    config.tracer = &sinks;
    config.profile = true;
    CellLog &log = cell.log;
    const auto t0 = Clock::now();
    ScenarioResult result = runScenario(config, [&job, &log] {
        return std::make_unique<TimedProtocol>(job.factory(), log);
    });
    const auto t1 = Clock::now();
    cell.start = nsBetween(log.epoch, t0);
    cell.dur = nsBetween(t0, t1);
    rep.traceBytes += static_cast<double>(writer.finish().size());
    rep.snapshotBytes += static_cast<double>(auditor.snapshots().size());
    return result;
}

/** Everything the reps leave for the metrics and output files. */
struct Passes
{
    std::vector<Rep> reps;
    std::vector<double> cellMs;         ///< untraced cell spans, all reps
    std::vector<CellTrace> sampled;     ///< first rep's traced cells
    std::int64_t sampledPassNs = 0;     ///< span of the first traced pass
    std::vector<ScenarioResult> last;   ///< last rep's untraced results
    std::size_t mismatched = 0;         ///< cells whose batches changed
};

Passes
runPasses(const ScenarioSpec &spec, const std::vector<GridJob> &grid,
          double seconds)
{
    Passes out;
    const auto start = Clock::now();
    while (out.reps.empty() ||
           static_cast<double>(nsBetween(start, Clock::now())) <
               seconds * 1e9) {
        Rep rep;
        const bool first = out.reps.empty();
        const auto epoch = Clock::now();
        // The untraced runs are cut out of the sampled timeline, so the
        // traced cells sit back to back in spans.json.
        std::int64_t untraced_so_far = 0;
        out.last.clear();
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const GridJob &job = grid[i];
            const std::string &proto = spec.cellProtocolSpec(i);
            CellTrace cell;
            cell.key = proto.substr(0, proto.find(':'));
            cell.load = spec.cellLoadToken(i);
            cell.tx = static_cast<double>(job.config.warmup) +
                      static_cast<double>(job.config.numBatches) *
                          static_cast<double>(job.config.batchSize);

            // Through runScenarioGrid, so the result carries what a
            // sweep's does (spec, protocol.spec annotation, elapsed time).
            const auto t0 = Clock::now();
            ScenarioResult plain =
                std::move(runScenarioGrid({job}, 1).front());
            const std::int64_t plain_ns = nsBetween(t0, Clock::now());
            untraced_so_far += plain_ns;
            out.cellMs.push_back(static_cast<double>(plain_ns) / 1e6);
            rep.untracedNs += static_cast<double>(plain_ns);

            cell.log.epoch = epoch;
            cell.log.keepSpans = first;
            const ScenarioResult traced = runTraced(job, cell, rep);
            cell.start -= untraced_so_far;
            for (auto &spans : cell.log.spans)
                for (Span &s : spans)
                    s.start -= untraced_so_far;

            if (!sameBatches(plain, traced))
                ++out.mismatched;
            rep.events += static_cast<double>(traced.profile.eventsExecuted);
            rep.passes +=
                static_cast<double>(traced.profile.arbitrationPasses);
            rep.retries += static_cast<double>(traced.profile.retryPasses);
            rep.maxDepth = std::max(
                rep.maxDepth,
                static_cast<double>(traced.profile.maxQueueDepth));
            const double cell_ns = static_cast<double>(cell.dur);
            rep.all.add(cell.log, cell_ns, cell.tx);
            rep.groups[protocolLayer(cell.key)].add(cell.log, cell_ns,
                                                    cell.tx);
            rep.groups[cell.key].add(cell.log, cell_ns, cell.tx);
            if (first) {
                out.sampledPassNs = cell.start + cell.dur;
                out.sampled.push_back(std::move(cell));
            }
            out.last.push_back(std::move(plain));
        }
        out.reps.push_back(std::move(rep));
    }
    return out;
}

/** Set every per-rep metric to its median over the reps. */
void
repMetrics(const std::vector<Rep> &reps, const TimerCost &timer,
           std::map<std::string, double> &metrics)
{
    const auto over_reps = [&](const char *metric,
                               const std::function<double(const Rep &)> &f) {
        std::vector<double> values;
        for (const Rep &rep : reps)
            values.push_back(f(rep));
        metrics[metric] = median(values);
    };
    const auto group = [](const Rep &rep, const std::string &g) {
        const auto it = rep.groups.find(g);
        return it != rep.groups.end() ? it->second : Totals{};
    };
    over_reps("experiment.self_ns_per_tx",
              [&](const Rep &r) { return r.all.selfNs(timer) / r.all.tx; });
    over_reps("sim.events_per_tx",
              [](const Rep &r) { return r.events / r.all.tx; });
    over_reps("sim.max_queue_depth", [](const Rep &r) { return r.maxDepth; });
    over_reps("core.ns_per_pass",
              [&](const Rep &r) { return group(r, "core").perPass(timer); });
    over_reps("core.ns_per_post", [&](const Rep &r) {
        return group(r, "core").perCall(kPost, timer);
    });
    over_reps("core.ns_per_tenure", [&](const Rep &r) {
        const Totals t = group(r, "core");
        return t.perCall(kTenureStart, timer) + t.perCall(kTenureEnd, timer);
    });
    over_reps("core.pass_share", [&](const Rep &r) {
        const Totals t = group(r, "core");
        return t.protocolNs(timer) / t.workNs(timer);
    });
    over_reps("core.rr1.ns_per_pass",
              [&](const Rep &r) { return group(r, "rr1").perPass(timer); });
    over_reps("core.fcfs1.ns_per_pass",
              [&](const Rep &r) { return group(r, "fcfs1").perPass(timer); });
    over_reps("baseline.ns_per_pass", [&](const Rep &r) {
        return group(r, "baseline").perPass(timer);
    });
    over_reps("bus.passes_per_tx",
              [](const Rep &r) { return r.passes / r.all.tx; });
    over_reps("bus.retry_frac",
              [](const Rep &r) { return r.retries / r.passes; });
    over_reps("obs.trace_ns_per_event",
              [&](const Rep &r) { return r.all.perCall(kTraceSink, timer); });
    over_reps("obs.fairness_ns_per_event", [&](const Rep &r) {
        return r.all.perCall(kFairnessSink, timer);
    });
    over_reps("obs.sink_share", [&](const Rep &r) {
        return (r.all.net(kTraceSink, timer) +
                r.all.net(kFairnessSink, timer)) /
               r.all.workNs(timer);
    });
    over_reps("obs.trace_bytes_per_tx",
              [](const Rep &r) { return r.traceBytes / r.all.tx; });
    over_reps("obs.snapshot_bytes_per_tx",
              [](const Rep &r) { return r.snapshotBytes / r.all.tx; });
    over_reps("trace.overhead_pct", [](const Rep &r) {
        return 100.0 * (r.all.cellNs / r.untracedNs - 1.0);
    });
}

/**
 * Time the metrics export, the result codec (with a round-trip check)
 * and the checkpoint manifest on real results.
 *
 * @return False when the codec or the manifest failed.
 */
bool
probeExports(const std::vector<ScenarioResult> &results,
             const std::string &work, std::int64_t spans_at,
             std::map<std::string, double> &metrics,
             std::vector<std::pair<std::string, Span>> &spans,
             std::string &error)
{
    const auto phase = Clock::now();
    const auto span = [&](Clock::time_point t0, Clock::time_point t1) {
        return Span{spans_at + nsBetween(phase, t0), nsBetween(t0, t1)};
    };
    const auto ms = [](Clock::time_point t0, Clock::time_point t1) {
        return static_cast<double>(nsBetween(t0, t1)) / 1e6;
    };
    std::vector<double> export_ms;
    std::vector<double> encode_ms;
    std::vector<double> decode_ms;
    std::vector<double> append_ms;
    double record_bytes = 0.0;
    std::vector<std::vector<std::uint8_t>> records;
    for (const ScenarioResult &result : results) {
        std::ostringstream json;
        auto t0 = Clock::now();
        result.metrics.writeJson(json);
        export_ms.push_back(ms(t0, Clock::now()));

        t0 = Clock::now();
        records.push_back(encodeScenarioResult(result));
        auto t1 = Clock::now();
        encode_ms.push_back(ms(t0, t1));
        spans.push_back({"dist.encode", span(t0, t1)});
        record_bytes += static_cast<double>(records.back().size());

        ScenarioResult decoded;
        t0 = Clock::now();
        const bool ok = decodeScenarioResult(
            records.back().data(), records.back().size(), decoded, error);
        t1 = Clock::now();
        decode_ms.push_back(ms(t0, t1));
        spans.push_back({"dist.decode", span(t0, t1)});
        if (!ok || !sameBatches(decoded, result)) {
            error = "result codec round trip: " + error;
            return false;
        }
    }
    metrics["obs.export_ms_per_cell"] = median(export_ms);
    metrics["dist.encode_us_per_cell"] = 1e3 * median(encode_ms);
    metrics["dist.decode_us_per_cell"] = 1e3 * median(decode_ms);
    metrics["dist.record_kb_per_cell"] =
        record_bytes / 1024.0 / static_cast<double>(results.size());

    const std::string path = work + "/manifest.jsonl";
    std::filesystem::remove(path);
    ManifestHeader header;
    header.fingerprint = 1;
    header.end = records.size();
    {
        ManifestWriter writer;
        if (!writer.open(path, header, 0, error))
            return false;
        for (std::size_t i = 0; i < records.size(); ++i) {
            const auto t0 = Clock::now();
            if (!writer.appendCell(i, records[i], error))
                return false;
            append_ms.push_back(ms(t0, Clock::now()));
        }
    }
    metrics["dist.append_ms_per_cell"] = median(append_ms);
    ManifestContents contents;
    const auto t0 = Clock::now();
    const ManifestReadStatus status =
        readManifest(path, header, contents, error);
    metrics["dist.read_ms_per_shard"] = ms(t0, Clock::now());
    std::filesystem::remove(path);
    if (status != ManifestReadStatus::kOk ||
        contents.cells.size() != records.size()) {
        error = "manifest read back: " + error;
        return false;
    }
    return true;
}

// -------------------------------------------------------------- output

/** Per-kind calls and estimated time of one cell, as JSON members. */
std::string
childrenJson(const Totals &t, const TimerCost &timer)
{
    std::string out;
    for (std::size_t k = 0; k < kNumKinds; ++k) {
        out += std::string(k ? ", " : "") + e2e::jsonString(kKindNames[k]) +
               ": {\"calls\": " + e2e::jsonNumber(t.calls[k]) +
               ", \"timed\": " + e2e::jsonNumber(t.timed[k]) +
               ", \"ns\": " +
               e2e::jsonNumber(t.net(static_cast<Kind>(k), timer)) + "}";
    }
    return out;
}

Totals
cellTotals(const CellTrace &c)
{
    Totals t;
    t.add(c.log, static_cast<double>(c.dur), c.tx);
    return t;
}

void
writeSpans(const std::string &path, const std::string &name,
           const Passes &passes,
           const std::vector<std::pair<std::string, Span>> &extra,
           const TimerCost &timer)
{
    std::ofstream out(path);
    const auto event = [&](const std::string &label, const Span &s,
                           const std::string &args) {
        out << ",\n{\"name\": " << e2e::jsonString(label)
            << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << e2e::jsonNumber(static_cast<double>(s.start) / 1000.0)
            << ", \"dur\": "
            << e2e::jsonNumber(static_cast<double>(s.dur) / 1000.0)
            << ", \"args\": {" << args << "}}";
    };
    out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n"
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"args\": {\"name\": "
        << e2e::jsonString("busarb " + name) << "}}";
    event("workload " + name, {0, passes.sampledPassNs}, "");
    for (std::size_t i = 0; i < passes.sampled.size(); ++i) {
        const CellTrace &c = passes.sampled[i];
        const std::string id = "\"cell\": " + std::to_string(i);
        event("cell " + c.key + " load=" + c.load, {c.start, c.dur},
              id + ", \"self_ns\": " +
                  e2e::jsonNumber(cellTotals(c).selfNs(timer)));
        for (std::size_t k = 0; k < kNumKinds; ++k)
            for (const Span &s : c.log.spans[k])
                event(kKindNames[k], s, id);
    }
    for (const auto &[label, span] : extra)
        event(label, span, "");
    out << "\n]}\n";
}

void
writeLayers(const std::string &path, const std::string &name,
            const Passes &passes,
            const std::map<std::string, double> &metrics,
            const TimerCost &timer)
{
    std::map<std::string, Totals> by_key;
    for (const Rep &rep : passes.reps)
        for (const auto &[key, totals] : rep.groups)
            if (key != "core" && key != "baseline") {
                Totals &t = by_key[key];
                for (std::size_t k = 0; k < kNumKinds; ++k) {
                    t.calls[k] += totals.calls[k];
                    t.timed[k] += totals.timed[k];
                    t.ns[k] += totals.ns[k];
                }
            }

    std::ofstream out(path);
    out << "{\"workload\": " << e2e::jsonString(name)
        << ", \"reps\": " << passes.reps.size()
        << ", \"time_every\": " << kTimeEvery
        << ", \"timer_ns\": {\"inside\": " << e2e::jsonNumber(timer.inside)
        << ", \"outside\": " << e2e::jsonNumber(timer.outside)
        << "},\n \"metrics\": {";
    const char *sep = "";
    for (const auto &[metric, value] : metrics) {
        out << sep << e2e::jsonString(metric) << ": "
            << e2e::jsonNumber(value);
        sep = ", ";
    }
    out << "},\n \"ns_per_pass\": {";
    sep = "";
    for (const auto &[key, totals] : by_key) {
        out << sep
            << e2e::jsonString(std::string(protocolLayer(key)) + "." + key)
            << ": " << e2e::jsonNumber(totals.perPass(timer));
        sep = ", ";
    }
    out << "},\n \"cells\": [";
    sep = "\n  ";
    for (std::size_t i = 0; i < passes.sampled.size(); ++i) {
        const CellTrace &c = passes.sampled[i];
        const Totals t = cellTotals(c);
        out << sep << "{\"cell\": " << i
            << ", \"protocol\": " << e2e::jsonString(c.key)
            << ", \"load\": " << e2e::jsonString(c.load)
            << ", \"span_ns\": " << c.dur
            << ", \"self_ns\": " << e2e::jsonNumber(t.selfNs(timer))
            << ", \"timer_ns\": " << e2e::jsonNumber(t.timerNs(timer))
            << ", \"children\": {" << childrenJson(t, timer) << "}}";
        sep = ",\n  ";
    }
    out << "\n]}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser(kProgram, "traced in-process pass of the busarb "
                               "end-to-end benchmark");
    parser.addStringFlag("grid", "", "generated grid file of the workload");
    parser.addStringFlag("name", "workload", "workload name for the spans");
    parser.addDoubleFlag("seconds", 10.0, "time budget for the reps");
    parser.addStringFlag("work", ".", "scratch directory (manifest probe)");
    parser.addStringFlag("spans-dir", ".",
                         "where spans.json and layers.json go");
    // The workload's busarb_sweep observer flags, mapped onto the same
    // SweepTuning busarb_sweep builds from them.
    parser.addStringFlag("trace-out", "", "(busarb_sweep flag)");
    parser.addStringFlag("metrics-out", "", "(busarb_sweep flag)");
    parser.addStringFlag("snapshot-out", "", "(busarb_sweep flag)");
    parser.addDoubleFlag("snapshot-every", 0.0, "(busarb_sweep flag)");
    parser.addBoolFlag("fairness", false, "(busarb_sweep flag)");
    parser.addBoolFlag("health", false, "(busarb_sweep flag)");
    if (!parser.parse(argc, argv))
        return parser.exitCode();
    const std::string grid_path = parser.getString("grid");
    const std::string name = parser.getString("name");

    SweepTuning tuning;
    tuning.captureTrace = !parser.getString("trace-out").empty();
    tuning.snapshotEvery = parser.getDouble("snapshot-every");
    tuning.fairness = parser.getBool("fairness") || tuning.snapshotEvery > 0;
    tuning.health = parser.getBool("health");
    tuning.healthSnapshots =
        tuning.health && !parser.getString("snapshot-out").empty();

    std::map<std::string, double> metrics;
    std::vector<std::string> notes;

    // Set-up as busarb_sweep does it: read + parse the spec, build cells.
    std::vector<double> setup_ms;
    for (int i = 0; i < 25; ++i) {
        const auto t0 = Clock::now();
        const ScenarioSpec spec = scenarioSpecOrExit(kProgram, grid_path);
        const std::vector<GridJob> cells =
            buildSweepGrid(spec, tuning, kProgram);
        setup_ms.push_back(static_cast<double>(nsBetween(t0, Clock::now())) /
                           1e6);
    }
    metrics["experiment.setup_ms"] = median(setup_ms);
    const ScenarioSpec spec = scenarioSpecOrExit(kProgram, grid_path);
    const std::vector<GridJob> grid = buildSweepGrid(spec, tuning, kProgram);

    metrics["sim.queue_ns_per_event"] =
        probeQueue(static_cast<std::size_t>(spec.agents) + 4);
    metrics["random.ns_per_draw"] =
        probeDraw(*workloadDraw(grid.front().config));
    metrics["stats.collector_ns_per_tx"] = probeCollector(spec.agents);
    const TimerCost timer = calibrate();
    char line[200];
    std::snprintf(line, sizeof(line),
                  "1 in %llu calls timed; a timed call costs %.1f ns inside "
                  "its span and %.1f ns outside, both subtracted",
                  static_cast<unsigned long long>(kTimeEvery), timer.inside,
                  timer.outside);
    notes.push_back(line);

    const Passes passes =
        runPasses(spec, grid, parser.getDouble("seconds"));
    const std::size_t attempted = passes.reps.size() * grid.size();
    std::size_t failed = passes.mismatched;
    notes.push_back(passes.mismatched > 0
                        ? "FAILED: " + std::to_string(passes.mismatched) +
                              " traced cells changed their batch series"
                        : "traced runs reproduced the batch series of all " +
                              std::to_string(attempted) + " cells");
    repMetrics(passes.reps, timer, metrics);
    if (passes.reps.front().all.timed[kSettle] > 0) {
        std::vector<double> settle;
        for (const Rep &rep : passes.reps)
            settle.push_back(rep.all.perCall(kSettle, timer));
        metrics["bus.settle_ns_per_pass"] = median(settle);
    } else {
        metrics["bus.settle_ns_per_pass"] = probeSettle(spec.agents);
        notes.push_back("the bus does not time settling here; "
                        "bus.settle_ns_per_pass is an rr1 probe with all "
                        "agents contending");
    }

    // Untraced cell spans: the median and the highest percentile with at
    // least ten samples beyond it.
    std::vector<double> cell_ms = passes.cellMs;
    std::sort(cell_ms.begin(), cell_ms.end());
    const std::size_t tail =
        std::max(cell_ms.size() / 2, cell_ms.size() > 11 ? cell_ms.size() - 11
                                                         : std::size_t{0});
    metrics["experiment.cell_ms_p50"] = median(cell_ms);
    metrics["experiment.cell_ms_tail"] = cell_ms[tail];
    std::snprintf(line, sizeof(line),
                  "experiment.cell_ms_tail is p%.1f of n=%zu cell spans",
                  100.0 * static_cast<double>(tail + 1) /
                      static_cast<double>(cell_ms.size()),
                  cell_ms.size());
    notes.push_back(line);

    std::vector<std::pair<std::string, Span>> export_spans;
    std::string error;
    if (!probeExports(passes.last, parser.getString("work"),
                      passes.sampledPassNs, metrics, export_spans, error)) {
        failed += grid.size();
        notes.push_back("FAILED: " + error);
    }

    const std::string dir = parser.getString("spans-dir");
    std::filesystem::create_directories(dir);
    writeSpans(dir + "/spans.json", name, passes, export_spans, timer);
    writeLayers(dir + "/layers.json", name, passes, metrics, timer);
    notes.push_back("spans.json and layers.json in " + dir);

    std::cout << "{\"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"reps\": " << passes.reps.size() << ", \"metrics\": {";
    const char *sep = "";
    for (const auto &[metric, value] : metrics) {
        std::cout << sep << e2e::jsonString(metric) << ": "
                  << e2e::jsonNumber(value);
        sep = ", ";
    }
    std::cout << "}, \"notes\": [";
    sep = "";
    for (const auto &note : notes) {
        std::cout << sep << e2e::jsonString(note);
        sep = ", ";
    }
    std::cout << "]}" << std::endl;
    return 0;
}
