/**
 * @file
 * busarb_sim — command-line front end to the whole library.
 *
 * Run any protocol on any of the paper's workload families without
 * writing code:
 *
 *   busarb_sim --protocol rr1 --agents 30 --load 2.0
 *   busarb_sim --protocol fcfs1 --agents 10 --load 1.5 --cv 0.5 \
 *              --histogram-csv hist.csv --batches-csv batches.csv
 *   busarb_sim --protocol aap1 --agents 30 --load 7.5 --compare rr1
 *   busarb_sim --protocol rr3 --agents 4 --load 1.0 --trace-events 40
 *   busarb_sim --protocol fcfs2 --agents 16 --load 2.0 --settle-timing
 *   busarb_sim --protocol rr1 --worst-case --agents 10 --cv 0
 *   busarb_sim --protocol rr1 --agents 8 --load 2.0 --trace-out run.trace \
 *              --metrics-out run-metrics.csv
 *   busarb_sim --scenario examples/scenarios/wrr_asymmetric.scenario
 *   busarb_sim --list-protocols
 *
 * Protocol specs are resolved by the protocol registry
 * (experiment/protocol_registry.hh); workloads come from declarative
 * scenario specs (experiment/scenario_spec.hh), built either from a
 * --scenario file or from the individual flags.
 */

#include <chrono>
#include <cstddef>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bus/trace.hh"
#include "experiment/cli.hh"
#include "experiment/job_pool.hh"
#include "experiment/observer_flags.hh"
#include "experiment/csv.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/run_report.hh"
#include "experiment/workload_registry.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"
#include "experiment/table.hh"
#include "workload/scenario.hh"

using namespace busarb;

int
main(int argc, char **argv)
{
    ArgParser parser("busarb_sim",
                     "simulate multiprocessor bus arbitration protocols "
                     "(Vernon & Manber, ISCA 1988)");
    parser.addStringFlag("protocol", "rr1",
                         "protocol spec (see --list-protocols), e.g. "
                         "rr:impl=3, "
                         "fcfs:strategy=increment_on_lose,counter_bits=8,"
                         " fcfs2:window=0.05,bits=3,wrap, rr1:priority, "
                         "or wrr:weights=4/1/1/1");
    parser.addStringFlag("compare", "",
                         "second protocol to run on the same workload");
    parser.addBoolFlag("list-protocols", false,
                       "print the protocol catalogue (keys, parameters, "
                       "defaults, paper sections) and exit");
    parser.addBoolFlag("list-workloads", false,
                       "print the workload-source catalogue (keys, "
                       "parameters, defaults) and exit");
    addScenarioFlags(parser);
    parser.addStringFlag("batches-csv", "",
                         "write per-batch measurements to this file");
    parser.addStringFlag("histogram-csv", "",
                         "write the waiting-time histogram to this file");
    parser.addIntFlag("trace-events", 0,
                      "print the first K bus events as a timeline");
    addObserverFlags(parser, kSimTool);
    parser.addBoolFlag("profile", false,
                       "print a per-run self-profile (events/sec, "
                       "per-phase wall-clock, queue depth) to stderr "
                       "and export profile.* metrics");
    parser.addIntFlag("jobs", 0,
                      "parallel scenario jobs for --compare runs (0 = "
                      "one per hardware thread); results are identical "
                      "at any job count");
    if (!parser.parse(argc, argv))
        return parser.exitCode();
    if (parser.getBool("list-protocols")) {
        ProtocolRegistry::builtin().printTable(std::cout);
        return 0;
    }
    if (parser.getBool("list-workloads")) {
        WorkloadRegistry::builtin().printTable(std::cout);
        return 0;
    }

    // Artifact destinations are validated before the run: a missing
    // parent directory fails in seconds, not after the simulation.
    for (const char *flag : {"batches-csv", "histogram-csv"})
        requireParentDirOrExit("busarb_sim", flag,
                               parser.getString(flag));
    const ObserverConfig observe = observerConfigFromFlagsOrExit(
        "busarb_sim", parser, SnapshotSources::kIntervalOrHealth);
    const long trace_events =
        intFlagOrExit("busarb_sim", parser, "trace-events", 0);
    const int jobs_flag =
        static_cast<int>(intFlagOrExit("busarb_sim", parser, "jobs", 0));

    ScenarioSpec spec = scenarioSpecFromFlags("busarb_sim", parser);
    // The provenance annotation is the scenario as given; --protocol
    // and --compare join only its cells.
    const std::string scenario_text = spec.format();
    if (spec.rowAxis().size() != 1) {
        std::cerr << "busarb_sim: scenario sweeps " << spec.rowAxis().size()
                  << " " << spec.rowName()
                  << " values; busarb_sim runs one (use busarb_sweep "
                     "--grid for grids)\n";
        return 2;
    }

    // One or two protocol specs: from the scenario file when it names
    // any, otherwise from --protocol/--compare. Mixing the two sources
    // would leave the file no longer describing the run.
    std::vector<std::string> &protocol_specs = spec.protocolSpecs;
    if (!protocol_specs.empty() &&
        (parser.wasSet("protocol") || parser.wasSet("compare"))) {
        std::cerr << "busarb_sim: --protocol/--compare conflict with "
                     "the scenario file's [protocol]/[sweep] entries\n";
        return 2;
    }
    if (protocol_specs.empty()) {
        protocol_specs.push_back(parser.getString("protocol"));
        if (!parser.getString("compare").empty())
            protocol_specs.push_back(parser.getString("compare"));
    }
    if (protocol_specs.size() > 2) {
        std::cerr << "busarb_sim: scenario names "
                  << protocol_specs.size()
                  << " protocols; busarb_sim runs at most two (use "
                     "busarb_sweep --grid for grids)\n";
        return 2;
    }
    if (protocol_specs.size() == 2 &&
        protocol_specs[0] == protocol_specs[1]) {
        // Identical specs would collide under the protocol-name
        // metric prefix (and tell the reader nothing anyway).
        std::cerr << "busarb_sim: comparison runs need two different "
                     "protocol specs, got '"
                  << protocol_specs[0] << "' twice\n";
        return 2;
    }
    // Every spec and the workload are checked before any output, so
    // usage errors stay clean.
    std::vector<GridJob> grid = buildSweepGrid(spec, observe, "busarb_sim");

    std::unique_ptr<TextTracer> tracer;
    if (trace_events > 0) {
        std::cout << "timeline of the first " << trace_events
                  << " bus events:\n\n";
        tracer = std::make_unique<TextTracer>(
            std::cout, static_cast<std::uint64_t>(trace_events));
    }
    for (GridJob &job : grid) {
        job.config.profile = parser.getBool("profile");
        job.config.tracer = tracer.get();
    }
    const ScenarioConfig &config = grid.front().config;

    std::cout << "busarb_sim: " << describeScenario(config) << "\n\n";

    // A tracer writes to a shared stream while the simulation runs, so
    // traced runs must stay serial; plain runs fan out.
    const int jobs =
        config.tracer != nullptr ? 1 : resolveJobCount(jobs_flag);
    const auto start = std::chrono::steady_clock::now();
    std::vector<ScenarioResult> results = runScenarioGrid(grid, jobs);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    // A histogram CSV comes with the histogram in the run's metrics.
    if (!parser.getString("histogram-csv").empty()) {
        for (ScenarioResult &r : results) {
            const Histogram &h = r.waitHistogram;
            r.metrics.histogram("wait.histogram", h.binWidth(),
                                h.numBins()) = h;
        }
    }
    const ScenarioResult &result = results.front();

    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0)
            std::cout << "\n";
        printSummary(results[i], std::cout);
    }
    std::vector<std::string> labels;
    for (const auto &r : results)
        labels.push_back(r.protocolName);
    if (observe.fairness) {
        std::cout << "\n";
        for (const auto &r : results) {
            const auto &c = r.metrics.counters();
            const auto &g = r.metrics.gauges();
            std::cout << "fairness[" << r.protocolName
                      << "]: grants=" << c.at("fairness.grants").value()
                      << " bound_violations="
                      << c.at("fairness.bound_violations").value()
                      << " max_bypasses="
                      << g.at("fairness.max_bypasses").max()
                      << " inversions="
                      << c.at("fairness.inversions").value()
                      << " jain_completions="
                      << g.at("fairness.jain_completions").mean()
                      << " max_starvation="
                      << g.at("fairness.max_starvation_units").max()
                      << "\n";
        }
    }
    if (observe.health) {
        std::cout << "\n";
        printHealthLines(results, labels);
    }
    if (config.profile) {
        for (const auto &r : results)
            r.profile.print(r.protocolName, std::cerr);
    }
    std::cout << "\njobs=" << jobs << " elapsed_ms="
              << formatFixed(elapsed_ms, 0) << "\n";

    if (!writeSnapshotOut("busarb_sim", parser, results))
        return 1;
    if (!parser.getString("batches-csv").empty())
        std::cout << "\n";
    if (!writeArtifact("busarb_sim", parser.getString("batches-csv"),
                       "per-batch CSV",
                       [&](std::ostream &out) {
                           writeBatchesCsv(result, out);
                       }) ||
        !writeArtifact("busarb_sim", parser.getString("histogram-csv"),
                       "waiting-time histogram CSV",
                       [&](std::ostream &out) {
                           writeHistogramCsv(result, out);
                       }) ||
        !writeTraceOut("busarb_sim", parser, results))
        return 1;
    if (!parser.getString("metrics-out").empty() && results.size() == 2 &&
        labels[0] == labels[1]) {
        // Two specs can resolve to one protocol name (e.g. option
        // variants that do not change it); catch that before the merge
        // panics.
        std::cerr << "busarb_sim: --protocol and --compare resolve to "
                     "the same name '"
                  << labels[0] << "'; their metrics would collide\n";
        return 2;
    }
    // Canonical provenance: the same scenario.spec annotation whether
    // the run came from flags or from a scenario file.
    if (!writeMetricsOut("busarb_sim", parser, results, labels,
                         scenario_text))
        return 1;
    return healthStrictStatus("busarb_sim", parser, results, labels, "run");
}
