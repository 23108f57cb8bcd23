/**
 * @file
 * busarb_trace — inspect and convert binary bus traces.
 *
 * Reads a trace file produced by --trace-out (busarb_sim or
 * busarb_sweep) and converts it to Chrome trace-event JSON for
 * ui.perfetto.dev, to a flat events CSV, or to a per-request latency
 * CSV. With no output flags it prints a per-run latency breakdown
 * (queueing vs exposed arbitration vs service):
 *
 *   busarb_trace run.trace
 *   busarb_trace run.trace --perfetto run.json
 *   busarb_trace run.trace --events-csv events.csv
 *   busarb_trace run.trace --latency-csv latency.csv
 *
 * The `audit` subcommand replays every run in the trace through the
 * fairness auditor (obs/fairness_auditor.hh) — the identical code path
 * a live --fairness run uses — and prints per-run bypass bound,
 * starvation, and Jain's-index summaries:
 *
 *   busarb_trace audit run.trace
 *   busarb_trace audit run.trace --metrics-out f.json
 *
 * The audit takes the live run's auditor flags (window, bypass bound,
 * snapshot interval with --snapshot-out); see docs/OBSERVABILITY.md.
 *
 * A truncated or otherwise corrupt trace exits with status 2 and a
 * message naming the offending chunk.
 */

#include <algorithm>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "experiment/cli.hh"
#include "experiment/observer_flags.hh"
#include "obs/binary_trace.hh"
#include "obs/fairness_auditor.hh"
#include "obs/latency.hh"
#include "obs/metrics_registry.hh"
#include "obs/perfetto.hh"

using namespace busarb;

namespace {

bool
readFile(const std::string &path, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return !in.bad();
}

/**
 * Replay every chunk through a fresh FairnessAuditor and print its
 * summary; optionally write merged fairness.* metrics and concatenated
 * snapshot JSONL.
 *
 * @return Process exit code.
 */
int
runAudit(const std::vector<TraceChunk> &chunks, const ArgParser &parser,
         const ObserverConfig &observe)
{
    MetricsRegistry merged;
    std::string snapshots;
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const TraceChunk &chunk = chunks[i];
        FairnessAuditor auditor(FairnessAuditorConfig::from(
            observe, chunk.numAgents, chunk.protocol));
        Tick end = 0;
        for (const TraceEvent &ev : chunk.events) {
            auditor.consume(ev);
            end = std::max(end, ev.tick);
        }
        auditor.finish(end);

        if (i > 0)
            std::cout << "\n";
        std::cout << "run " << i << " (" << chunk.protocol << "):\n";
        auditor.printSummary(std::cout);
        MetricsRegistry local;
        auditor.exportMetrics(local);
        merged.mergeFrom(local, "run" + std::to_string(i) + "." +
                                    chunk.protocol + ".");
        snapshots += auditor.snapshots();
    }

    if (!parser.getString("metrics-out").empty()) {
        if (!merged.writeFile(parser.getString("metrics-out"))) {
            std::cerr << "busarb_trace: cannot write "
                      << parser.getString("metrics-out") << "\n";
            return 1;
        }
        std::cout << "\nwrote fairness metrics to "
                  << parser.getString("metrics-out") << "\n";
    }
    return writeArtifact("busarb_trace", parser.getString("snapshot-out"),
                         "fairness snapshots",
                         [&](std::ostream &out) { out << snapshots; })
               ? 0
               : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser parser("busarb_trace",
                     "convert binary bus traces (--trace-out files) to "
                     "Perfetto JSON or CSV, summarize latencies, or "
                     "`audit` fairness");
    parser.addStringFlag("perfetto", "",
                         "write Chrome trace-event JSON here (open in "
                         "ui.perfetto.dev)");
    parser.addStringFlag("events-csv", "",
                         "write one CSV row per trace event here");
    parser.addStringFlag("latency-csv", "",
                         "write one CSV row per served request here "
                         "(queue / exposed-arb / service breakdown)");
    parser.addBoolFlag("summary", false,
                       "print the latency breakdown table even when an "
                       "output flag is given");
    addObserverFlags(parser, kAuditTool);
    parser.addStringFlag("metrics-out", "",
                         "audit: write merged fairness.* metrics here "
                         "(.json for JSON, anything else for CSV)");
    if (!parser.parse(argc, argv))
        return parser.exitCode();

    bool audit = false;
    std::string input;
    if (parser.positional().size() == 1) {
        input = parser.positional().front();
    } else if (parser.positional().size() == 2 &&
               parser.positional().front() == "audit") {
        audit = true;
        input = parser.positional().back();
    } else {
        std::cerr << "busarb_trace: expected an input file or "
                     "`audit <file>` (see --help)\n";
        return 2;
    }
    // Artifact destinations are validated before any decoding work.
    for (const char *flag : {"perfetto", "events-csv", "latency-csv",
                             "metrics-out"})
        requireParentDirOrExit("busarb_trace", flag,
                               parser.getString(flag));
    // Audit-only flags are meaningless (and silently misleading) on the
    // conversion path; reject them loudly instead.
    if (!audit) {
        for (const char *flag :
             {"snapshot-out", "metrics-out"}) {
            if (!parser.getString(flag).empty()) {
                std::cerr << "busarb_trace: --" << flag
                          << " requires the audit subcommand\n";
                return 2;
            }
        }
    }
    const ObserverConfig observe = observerConfigFromFlagsOrExit(
        "busarb_trace", parser, SnapshotSources::kInterval);

    std::vector<std::uint8_t> bytes;
    if (!readFile(input, bytes)) {
        std::cerr << "busarb_trace: cannot read " << input << "\n";
        return 1;
    }

    std::vector<TraceChunk> chunks;
    try {
        chunks = readTraceChunks(bytes);
    } catch (const std::exception &err) {
        // Truncated or corrupt chunks are a usage-level failure (wrong
        // file, interrupted capture), distinct from I/O errors above.
        std::cerr << "busarb_trace: " << input
                  << ": corrupt or truncated trace: " << err.what()
                  << "\n";
        return 2;
    }

    if (audit)
        return runAudit(chunks, parser, observe);

    const std::string perfetto_path = parser.getString("perfetto");
    const std::string events_path = parser.getString("events-csv");
    const std::string latency_path = parser.getString("latency-csv");
    const bool any_output = !perfetto_path.empty() ||
                            !events_path.empty() || !latency_path.empty();

    if (!writeArtifact(
            "busarb_trace", perfetto_path, "Perfetto JSON",
            [&](std::ostream &os) { writePerfettoJson(chunks, os); }) ||
        !writeArtifact(
            "busarb_trace", events_path, "events CSV",
            [&](std::ostream &os) { writeEventsCsv(chunks, os); }) ||
        !writeArtifact(
            "busarb_trace", latency_path, "latency CSV",
            [&](std::ostream &os) { writeLatencyCsv(chunks, os); }))
        return 1;

    if (!any_output || parser.getBool("summary")) {
        std::size_t total_events = 0;
        for (const auto &chunk : chunks)
            total_events += chunk.events.size();
        std::cout << input << ": " << chunks.size() << " run(s), "
                  << total_events << " events\n\n";
        printLatencyBreakdown(chunks, std::cout);
    }
    return 0;
}
