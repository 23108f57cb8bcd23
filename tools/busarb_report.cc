/**
 * @file
 * busarb_report — run one scenario and render a self-contained run
 * report (markdown or HTML) with the convergence verdict up top,
 * followed by the summary estimates, per-batch measurements, latency
 * breakdown, fairness audit, and the full metrics export.
 *
 * The report is a pure function of the scenario configuration (seed
 * included), so a fixed command line reproduces the file byte for
 * byte:
 *
 *   busarb_report --protocol rr1 --agents 10 --load 2.0 --out run.html
 *   busarb_report --protocol fcfs1 --agents 30 --load 7.5 \
 *                 --format md --out run.md
 *   busarb_report --scenario examples/scenarios/wrr_asymmetric.scenario \
 *                 --out wrr.md
 *
 * The workload comes from the same declarative scenario seam as
 * busarb_sim (experiment/scenario_spec.hh); the canonical spec text is
 * embedded in the report, so any report can be replayed.
 */

#include <iostream>
#include <string>
#include <vector>

#include "experiment/cli.hh"
#include "experiment/observer_flags.hh"
#include "experiment/run_report.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"
#include "workload/scenario.hh"

using namespace busarb;

int
main(int argc, char **argv)
{
    ArgParser parser("busarb_report",
                     "render a self-contained run report (markdown or "
                     "HTML) for one scenario run");
    parser.addStringFlag("protocol", "rr1",
                         "protocol spec (same grammar as busarb_sim)");
    addScenarioFlags(parser);
    addObserverFlags(parser, kReportTool);
    parser.addBoolFlag("no-trace", false,
                       "skip the binary trace capture (drops the "
                       "latency-breakdown section; faster for large "
                       "runs)");
    parser.addStringFlag("format", "",
                         "report format: md or html (default: by --out "
                         "extension, .html for HTML, markdown "
                         "otherwise)");
    parser.addStringFlag("out", "",
                         "output file; '-' writes to stdout (required)");
    if (!parser.parse(argc, argv))
        return parser.exitCode();

    const std::string out_path = parser.getString("out");
    if (out_path.empty()) {
        std::cerr << "busarb_report: --out is required\n";
        return 2;
    }
    if (out_path != "-")
        requireParentDirOrExit("busarb_report", "out", out_path);
    RunReportFormat format = RunReportFormat::kMarkdown;
    const std::string format_arg = parser.getString("format");
    if (format_arg == "html") {
        format = RunReportFormat::kHtml;
    } else if (format_arg == "md" || format_arg == "markdown") {
        format = RunReportFormat::kMarkdown;
    } else if (format_arg.empty()) {
        if (out_path.size() >= 5 &&
            out_path.compare(out_path.size() - 5, 5, ".html") == 0)
            format = RunReportFormat::kHtml;
    } else {
        std::cerr << "busarb_report: --format must be md or html, got '"
                  << format_arg << "'\n";
        return 2;
    }

    ScenarioSpec spec = scenarioSpecFromFlags("busarb_report", parser);
    // The report embeds the scenario as given; --protocol joins only
    // its cell.
    const std::string scenario_text = spec.format();
    if (spec.rowAxis().size() != 1) {
        std::cerr << "busarb_report: scenario sweeps "
                  << spec.rowAxis().size() << " " << spec.rowName()
                  << " values; a report covers one run\n";
        return 2;
    }
    if (!spec.protocolSpecs.empty() && parser.wasSet("protocol")) {
        std::cerr << "busarb_report: --protocol conflicts with the "
                     "scenario file's [protocol]/[sweep] entries\n";
        return 2;
    }
    if (spec.protocolSpecs.empty())
        spec.protocolSpecs.push_back(parser.getString("protocol"));
    if (spec.protocolSpecs.size() > 1) {
        std::cerr << "busarb_report: scenario names "
                  << spec.protocolSpecs.size()
                  << " protocols; a report covers one run\n";
        return 2;
    }

    // A report is the run's full observability surface: health verdict,
    // snapshots, fairness audit, and (unless suppressed) the trace the
    // latency breakdown is computed from.
    ObserverConfig observe =
        observerConfigFromFlagsOrExit("busarb_report", parser);
    observe.health = true;
    observe.healthSnapshots = true;
    observe.fairness = true;
    observe.captureTrace = !parser.getBool("no-trace");
    const GridJob cell =
        buildSweepGrid(spec, observe, "busarb_report").front();
    const ScenarioConfig &config = cell.config;
    const ScenarioResult result = runScenario(config, cell.factory);

    if (out_path == "-") {
        writeRunReport(config, result, format, std::cout,
                       scenario_text);
        return 0;
    }
    const std::string what =
        std::string(format == RunReportFormat::kHtml ? "HTML" : "markdown") +
        " report (" + result.protocolName + ", verdict " +
        result.health.verdictLabel() + ")";
    return writeArtifact("busarb_report", out_path, what,
                         [&](std::ostream &out) {
                             writeRunReport(config, result, format, out,
                                            scenario_text);
                         })
               ? 0
               : 1;
}
