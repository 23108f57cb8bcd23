/**
 * @file
 * Registration units for every workload source in src/workload.
 *
 * This is the only place that knows both the concrete generators and
 * the workload registry: each register* function declares a descriptor
 * (key, reference, parameter schema) and a build function mapping
 * validated values onto a WorkloadSourceFactory. The runner, the tools
 * and the scenario files consume sources exclusively through the
 * registry, so adding a traffic model means adding a registration unit
 * here — nothing else.
 */

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "experiment/workload_registry.hh"
#include "obs/binary_trace.hh"
#include "sim/logging.hh"
#include "workload/agent_traits.hh"
#include "workload/mmpp_process.hh"
#include "workload/on_off_process.hh"
#include "workload/trace_workload.hh"

namespace busarb {

namespace {

/**
 * Per-agent offered load of one agent, from its traits — the single
 * mapping that gives "load" a per-family meaning. Closed sources use
 * the think time directly; open sources convert the same offered load
 * into an arrival rate (lambda = rho / S), so a load token means the
 * same bus pressure whichever family runs it.
 */
double
offeredLoadOf(const AgentTraits &traits, const ScenarioConfig &config)
{
    return loadForInterrequest(traits.meanInterrequest,
                               config.bus.transactionTime);
}

/** Per-agent arrival rates for an open source. */
std::vector<double>
arrivalRates(const ScenarioConfig &config, double total_rate)
{
    std::vector<double> rates;
    rates.reserve(config.agents.size());
    double total_load = 0.0;
    for (const auto &traits : config.agents)
        total_load += offeredLoadOf(traits, config);
    BUSARB_ASSERT(total_load > 0.0, "open workload with zero load");
    for (const auto &traits : config.agents) {
        const double rho = offeredLoadOf(traits, config);
        if (total_rate > 0.0) {
            // rate= fixes the aggregate; the load axis only shapes the
            // per-agent split.
            rates.push_back(total_rate * rho / total_load);
        } else {
            rates.push_back(rho / config.bus.transactionTime);
        }
    }
    return rates;
}

// ----------------------------------------------------------------- closed

void
registerClosed(WorkloadRegistry &registry)
{
    WorkloadDescriptor closed;
    closed.key = "closed";
    closed.summary =
        "closed-loop think/request/service agents (the paper's "
        "workload)";
    closed.reference = "§4.1";
    closed.build = [](const ParamValues &) -> WorkloadSourceFactory {
        return [](EventQueue &queue, Bus &bus,
                  const ScenarioConfig &config) {
            return std::make_unique<ClosedWorkloadSource>(queue, bus,
                                                          config);
        };
    };
    registry.add(std::move(closed));
}

// ------------------------------------------------------------------- open

void
registerOpen(WorkloadRegistry &registry)
{
    WorkloadDescriptor open;
    open.key = "open";
    open.summary =
        "open-loop arrivals (unbounded queues; load scales the "
        "arrival rate)";
    open.reference = "ext";
    open.openLoop = true;
    open.params = {
        enumParam("dist", "exp", {"exp", "pareto", "mmpp"},
                  "inter-arrival process: Poisson, heavy-tail Pareto, "
                  "or bursty 2-state MMPP"),
        doubleParam("rate", "0", 0.0, 1e6,
                    "aggregate arrival rate in requests per "
                    "transaction time; 0 derives rates from the load "
                    "axis"),
        doubleParam("alpha", "1.5", 1.001, 64.0,
                    "Pareto tail index (dist=pareto); (1, 2] has "
                    "infinite variance"),
        doubleParam("burst", "8", 0.001, 1e6,
                    "mean ON-phase duration in transaction units "
                    "(dist=mmpp)"),
        doubleParam("gap", "32", 0.001, 1e6,
                    "mean OFF-phase duration in transaction units "
                    "(dist=mmpp)"),
        doubleParam("ratio", "10", 1.0, 1e6,
                    "ON/OFF arrival-rate ratio (dist=mmpp)"),
    };
    open.build = [](const ParamValues &values) -> WorkloadSourceFactory {
        const std::string dist = values.getEnum("dist");
        const double rate = values.getDouble("rate");
        const double alpha = values.getDouble("alpha");
        const double burst = values.getDouble("burst");
        const double gap = values.getDouble("gap");
        const double ratio = values.getDouble("ratio");
        return [dist, rate, alpha, burst, gap,
                ratio](EventQueue &queue, Bus &bus,
                       const ScenarioConfig &config) {
            auto rates = std::make_shared<std::vector<double>>(
                arrivalRates(config, rate));
            OpenWorkloadSource::ArrivalFactory arrivals =
                [dist, alpha, burst, gap, ratio, rates](
                    AgentId a, const AgentTraits &)
                -> std::unique_ptr<Distribution> {
                const double lambda =
                    (*rates)[static_cast<std::size_t>(a - 1)];
                BUSARB_ASSERT(lambda > 0.0, "agent ", a,
                              " has zero arrival rate");
                if (dist == "pareto") {
                    return std::make_unique<ParetoDistribution>(
                        1.0 / lambda, alpha);
                }
                if (dist == "mmpp") {
                    // Keep the requested average rate while splitting
                    // it across phases: lambda = p_on*rate_on +
                    // p_off*rate_off with rate_on = ratio * rate_off.
                    const double p_on = burst / (burst + gap);
                    MmppParams params;
                    params.rateOff =
                        lambda / (p_on * ratio + (1.0 - p_on));
                    params.rateOn = ratio * params.rateOff;
                    params.meanOnTime = burst;
                    params.meanOffTime = gap;
                    return std::make_unique<MmppProcess>(params);
                }
                return std::make_unique<ExponentialDistribution>(
                    1.0 / lambda);
            };
            return std::make_unique<OpenWorkloadSource>(
                queue, bus, config, std::move(arrivals));
        };
    };
    registry.add(std::move(open));
}

// ------------------------------------------------------------------ onoff

void
registerOnOff(WorkloadRegistry &registry)
{
    WorkloadDescriptor onoff;
    onoff.key = "onoff";
    onoff.summary =
        "closed loop with ON/OFF-modulated (correlated) think times";
    onoff.reference = "§5";
    onoff.params = {
        doubleParam("on", "0.2", 1e-6, 1e6,
                    "mean think time while ON, before load scaling"),
        doubleParam("off", "10", 1e-6, 1e6,
                    "mean think time while OFF, before load scaling"),
        doubleParam("burst", "8", 1.0, 1e6,
                    "expected requests per ON burst"),
        doubleParam("gap", "2", 1.0, 1e6,
                    "expected requests per OFF stretch"),
    };
    onoff.validate = [](const ParamValues &values) -> std::string {
        if (values.getDouble("on") >= values.getDouble("off")) {
            return "option 'on' must be smaller than 'off' (the ON "
                   "phase is the bursty one)";
        }
        return "";
    };
    onoff.build =
        [](const ParamValues &values) -> WorkloadSourceFactory {
        OnOffParams shape;
        shape.meanOn = values.getDouble("on");
        shape.meanOff = values.getDouble("off");
        shape.burstLength = values.getDouble("burst");
        shape.gapLength = values.getDouble("gap");
        return [shape](EventQueue &queue, Bus &bus,
                       const ScenarioConfig &config) {
            // The on/off means fix the *shape*; the load axis fixes
            // the per-agent mean think time, so the same grid tokens
            // sweep bursty and smooth workloads comparably.
            ClosedWorkloadSource::ThinkFactory think =
                [shape](AgentId, const AgentTraits &traits)
                -> std::unique_ptr<Distribution> {
                OnOffParams scaled = shape;
                const double base_mean =
                    OnOffProcess(shape).mean();
                const double factor =
                    traits.meanInterrequest / base_mean;
                BUSARB_ASSERT(factor > 0.0,
                              "onoff think scaling needs a positive "
                              "mean inter-request time");
                scaled.meanOn *= factor;
                scaled.meanOff *= factor;
                return std::make_unique<OnOffProcess>(scaled);
            };
            return std::make_unique<ClosedWorkloadSource>(
                queue, bus, config, std::move(think));
        };
    };
    registry.add(std::move(onoff));
}

// ------------------------------------------------------------------ trace

/**
 * Load a request trace from disk.
 *
 * @param error Receives a message on failure.
 * @retval false The file was unreadable or the chunk out of range
 *         (malformed *content* is fatal, with a line/offset message).
 */
bool
loadRequestTrace(const std::string &file, const std::string &format,
                 long chunk, RequestTrace &out, std::string &error)
{
    if (format == "binary") {
        std::ifstream is(file, std::ios::binary);
        if (!is) {
            error = "cannot read trace file '" + file + "'";
            return false;
        }
        std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(is)),
            std::istreambuf_iterator<char>());
        const auto chunks = readTraceChunks(bytes);
        if (chunk < 0 ||
            static_cast<std::size_t>(chunk) >= chunks.size()) {
            std::ostringstream os;
            os << "trace file '" << file << "' has " << chunks.size()
               << " chunk(s); chunk=" << chunk << " is out of range";
            error = os.str();
            return false;
        }
        RequestTrace trace;
        for (const auto &event :
             chunks[static_cast<std::size_t>(chunk)].events) {
            if (event.kind == TraceEventKind::kRequestPosted)
                trace.append(event.tick, event.agent, event.priority);
        }
        out = std::move(trace);
        return true;
    }
    std::ifstream is(file);
    if (!is) {
        error = "cannot read trace file '" + file + "'";
        return false;
    }
    out = RequestTrace::parse(is);
    return true;
}

void
registerTrace(WorkloadRegistry &registry)
{
    WorkloadDescriptor trace;
    trace.key = "trace";
    trace.summary =
        "replay a recorded request trace (record once, re-drive any "
        "protocol)";
    trace.reference = "[EgGi87]";
    trace.openLoop = true;
    trace.takesLoads = false;
    trace.params = {
        stringParam("file",
                    "trace to replay: text (<time> <agent> [p]) or a "
                    "--trace-out binary capture; required"),
        enumParam("format", "text", {"text", "binary"},
                  "trace file format"),
        intParam("chunk", 0, 0, 1000000000,
                 "chunk index within a binary capture (one chunk per "
                 "recorded run)"),
    };
    trace.validate = [](const ParamValues &values) -> std::string {
        if (values.getString("file").empty())
            return "workload source 'trace' requires file=<path>";
        return "";
    };
    trace.validateRun = [](const ParamValues &values,
                           const ScenarioConfig &config) -> std::string {
        RequestTrace loaded;
        std::string error;
        if (!loadRequestTrace(values.getString("file"),
                              values.getEnum("format"),
                              values.getInt("chunk"), loaded, error))
            return error;
        if (loaded.maxAgent() > config.numAgents) {
            std::ostringstream os;
            os << "trace references agent " << loaded.maxAgent()
               << " but the scenario has only " << config.numAgents
               << " agents";
            return os.str();
        }
        const std::uint64_t needed =
            config.warmup +
            static_cast<std::uint64_t>(config.numBatches) *
                config.batchSize;
        if (loaded.size() < needed) {
            std::ostringstream os;
            os << "trace has " << loaded.size()
               << " requests but the run needs " << needed
               << " completions (warmup + batches * batch-size); "
                  "shorten the run or record a longer trace";
            return os.str();
        }
        return "";
    };
    trace.build = [](const ParamValues &values) -> WorkloadSourceFactory {
        const std::string file = values.getString("file");
        const std::string format = values.getEnum("format");
        const long chunk = values.getInt("chunk");
        return [file, format, chunk](EventQueue &queue, Bus &bus,
                                     const ScenarioConfig &) {
            RequestTrace loaded;
            std::string error;
            if (!loadRequestTrace(file, format, chunk, loaded, error))
                BUSARB_FATAL(error);
            return std::make_unique<TraceWorkloadSource>(
                queue, bus, std::move(loaded));
        };
    };
    registry.add(std::move(trace));
}

} // namespace

void
registerBuiltinWorkloads(WorkloadRegistry &registry)
{
    registerClosed(registry);
    registerOpen(registry);
    registerOnOff(registry);
    registerTrace(registry);
}

} // namespace busarb
