/**
 * @file
 * busarb_sweep — sweep protocols across a load range and emit a CSV (or
 * table) of the paper's summary measures. The companion to busarb_sim
 * for producing plot-ready data.
 *
 * Scenario runs fan out across worker threads (--jobs); every cell of
 * the protocol x load grid is hermetic, so the output is bit-identical
 * at any job count.
 *
 *   busarb_sweep --protocols rr1,fcfs1,aap1 --agents 30 \
 *                --loads 0.25,0.5,1,1.5,2,2.5,5,7.5 --jobs 4 --csv out.csv
 *   busarb_sweep --grid bench/tables/table_4_1_n10.grid
 *
 * A --grid scenario file (experiment/scenario_spec.hh) declares the
 * same sweep declaratively — including protocol specs with options,
 * which the comma-separated --protocols flag cannot express, a cv,
 * arb-overhead or batch-size row axis, and [table] sections that
 * replace the generic table — and expands through the same
 * cell-assembly path, so a grid file reproduces a flag invocation
 * byte for byte.
 *
 * With --shards N (and a --shard-dir), the sweep becomes a
 * multi-process fleet: the grid is partitioned into shards, worker
 * processes (`busarb_sweep --worker-shard <task-file>`) checkpoint
 * each finished cell durably, and the coordinator reassembles the
 * results — every artifact byte-identical to the single-process run.
 * A killed run (workers or coordinator) continues with --resume from
 * whatever the checkpoints already hold. See docs/ORCHESTRATION.md.
 */

#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dist/dispatcher.hh"
#include "dist/worker_protocol.hh"
#include "experiment/cli.hh"
#include "experiment/csv.hh"
#include "experiment/job_pool.hh"
#include "experiment/observer_flags.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"
#include "experiment/table.hh"
#include "experiment/workload_registry.hh"
#include "obs/sweep_progress.hh"

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace busarb;

    ArgParser parser("busarb_sweep",
                     "sweep arbitration protocols across offered loads");
    parser.addStringFlag("grid", "",
                         "read the whole sweep (workload, run controls, "
                         "loads, protocol specs) from this scenario "
                         "file; conflicts with the axis flags");
    parser.addStringFlag("protocols", "rr1,fcfs1",
                         "comma-separated protocol keys (note: specs "
                         "with options are not usable here because of "
                         "the comma separator; use --grid)");
    parser.addStringFlag("loads", "0.25,0.5,1,1.5,2,2.5,5,7.5",
                         "comma-separated total offered loads");
    parser.addBoolFlag("list-protocols", false,
                       "print the protocol catalogue (keys, parameters, "
                       "defaults, paper sections) and exit");
    parser.addBoolFlag("list-workloads", false,
                       "print the workload-source catalogue (keys, "
                       "options, defaults) and exit");
    parser.addStringFlag("source", "closed",
                         "workload-source spec for every cell (see "
                         "--list-workloads); sources without a load "
                         "axis conflict with --loads");
    parser.addIntFlag("agents", 10, "number of agents");
    parser.addDoubleFlag("cv", 1.0,
                         "inter-request coefficient of variation");
    parser.addIntFlag("batches", 10, "measurement batches");
    parser.addIntFlag("batch-size", 8000, "completions per batch");
    parser.addIntFlag("jobs", 0,
                      "parallel scenario jobs (0 = one per hardware "
                      "thread, 1 = serial); any value produces "
                      "identical output. In fleet mode this is the "
                      "per-worker thread count (default 1)");
    parser.addStringFlag("csv", "", "write CSV here instead of a table");
    parser.addStringFlag("timing-csv", "",
                         "write per-cell wall-clock timing here (host "
                         "timing; varies run to run, so it is kept out "
                         "of the deterministic --csv file)");
    addObserverFlags(parser, kSweepTool);
    parser.addBoolFlag("progress", false,
                       "print a live progress/ETA line to stderr as grid "
                       "cells complete (stderr only, so stdout and every "
                       "artifact stay byte-identical)");
    parser.addIntFlag("shards", 0,
                      "partition the grid into this many shards and run "
                      "them as worker processes (requires --shard-dir); "
                      "0 or 1 = in-process");
    parser.addStringFlag("shard-dir", "",
                         "directory for shard task files and durable "
                         "cell checkpoints (created if missing)");
    parser.addIntFlag("fleet", 0,
                      "max concurrent worker processes (0 = "
                      "min(shards, hardware threads))");
    parser.addIntFlag("retries", 2,
                      "crash retries per shard before the sweep gives "
                      "up (each retry resumes from the shard's "
                      "checkpoints)");
    parser.addBoolFlag("resume", false,
                       "continue a sharded sweep from the checkpoints "
                       "already in --shard-dir instead of refusing");
    parser.addStringFlag("worker-shard", "",
                         "internal: run one shard task file and "
                         "checkpoint its cells (spawned by the "
                         "coordinator; every other flag except --jobs "
                         "is ignored)");
    if (!parser.parse(argc, argv))
        return parser.exitCode();
    const int jobs_flag =
        static_cast<int>(intFlagOrExit("busarb_sweep", parser, "jobs", 0));
    if (!parser.getString("worker-shard").empty()) {
        return runWorkerShard("busarb_sweep",
                              parser.getString("worker-shard"), jobs_flag);
    }
    if (parser.getBool("list-protocols")) {
        ProtocolRegistry::builtin().printTable(std::cout);
        return 0;
    }
    if (parser.getBool("list-workloads")) {
        WorkloadRegistry::builtin().printTable(std::cout);
        return 0;
    }

    // Every knob that shapes a cell lives in one SweepTuning: the
    // in-process path, the coordinator, and every worker derive their
    // cells from it through the same sweep_cells.hh assembly, which is
    // what keeps sharded artifacts byte-identical to this process's.
    // Bad values exit 2 here, before any cell runs or worker spawns.
    const SweepTuning tuning = observerConfigFromFlagsOrExit(
        "busarb_sweep", parser, SnapshotSources::kIntervalOrHealth);

    // Artifact destinations are validated before any cell runs: a
    // missing parent directory fails in seconds, not after the sweep.
    for (const char *flag : {"csv", "timing-csv"})
        requireParentDirOrExit("busarb_sweep", flag,
                               parser.getString(flag));

    const long shards_flag =
        intFlagOrExit("busarb_sweep", parser, "shards", 0);
    const long fleet_flag = intFlagOrExit("busarb_sweep", parser, "fleet", 0);
    const int retries_flag = static_cast<int>(
        intFlagOrExit("busarb_sweep", parser, "retries", 0));
    const bool sharded = shards_flag > 1;
    if (sharded && parser.getString("shard-dir").empty()) {
        std::cerr << "busarb_sweep: --shards needs --shard-dir for the "
                     "task files and checkpoints\n";
        return 2;
    }
    if (!sharded) {
        for (const char *flag : {"shard-dir", "fleet", "resume"}) {
            if (parser.wasSet(flag)) {
                std::cerr << "busarb_sweep: --" << flag
                          << " only makes sense with --shards >= 2\n";
                return 2;
            }
        }
    }

    // Both axes plus the workload come from one ScenarioSpec, built
    // either from a --grid file or from the flags through the file's
    // own checks; cell assembly below is shared, so the two inputs
    // produce identical artifacts.
    const ScenarioSpec spec = scenarioSpecFromFlags("busarb_sweep", parser);
    if (spec.family == "worst-case" && spec.rowKey == "loads") {
        std::cerr << "busarb_sweep: family 'worst-case' has no load "
                     "axis; sweep cv or run it with busarb_sim\n";
        return 2;
    }

    const auto &protocol_keys = spec.protocolSpecs;
    // Sources without a load axis (trace replay) sweep the single
    // placeholder token "-", so row labels and metric prefixes stay
    // well-formed with one cell per protocol.
    const auto &load_tokens = spec.rowAxis();
    if (protocol_keys.empty() || load_tokens.empty()) {
        std::cerr << "busarb_sweep: need at least one protocol and one "
                     "load\n";
        return 2;
    }

    // The results file opens before any cell runs, so an unwritable
    // path fails in seconds rather than after the sweep.
    std::ofstream file;
    std::ostream *csv = nullptr;
    if (!parser.getString("csv").empty()) {
        file.open(parser.getString("csv"));
        if (!file) {
            std::cerr << "busarb_sweep: cannot write "
                      << parser.getString("csv") << "\n";
            return 1;
        }
        csv = &file;
        writeSummaryCsvHeader(*csv);
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<ScenarioResult> results;
    int jobs = 0;
    if (sharded) {
        FleetOptions opts;
        opts.program = "busarb_sweep";
        opts.exePath = argv[0];
        opts.shardDir = parser.getString("shard-dir");
        opts.shards = static_cast<std::size_t>(shards_flag);
        opts.fleet = static_cast<std::size_t>(fleet_flag);
        opts.retries = retries_flag;
        // Workers default to one thread each — the fleet is the
        // parallelism — but an explicit --jobs passes through.
        opts.workerJobs = parser.wasSet("jobs") ? jobs_flag : 1;
        opts.resume = parser.getBool("resume");
        opts.progress = parser.getBool("progress");
        results = runShardedSweep(spec, tuning, opts);
        jobs = opts.workerJobs;
    } else {
        const std::vector<GridJob> grid =
            buildSweepGrid(spec, tuning, "busarb_sweep");
        jobs = resolveJobCount(jobs_flag);

        // The live progress line is stderr-only and host-timing based;
        // stdout and every written artifact stay byte-identical with
        // or without it, at any job count. The ETA smooths per-cell
        // completion times (EWMA) instead of assuming uniform cost, so
        // it tracks grids whose high-load cells run much longer.
        std::function<void(std::size_t, std::size_t)> on_progress;
        auto eta = std::make_shared<EtaEstimator>();
        if (parser.getBool("progress")) {
            eta->start(nowSeconds());
            on_progress = [eta, start](std::size_t done,
                                       std::size_t total) {
                eta->onProgress(nowSeconds(), done);
                const double elapsed =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
                std::cerr << "\rbusarb_sweep: " << done << "/" << total
                          << " cells elapsed="
                          << formatFixed(elapsed, 1) << "s";
                if (eta->primed())
                    std::cerr << " eta="
                              << formatFixed(
                                     eta->etaSeconds(total - done), 1)
                              << "s";
                std::cerr << "   ";
                if (done == total)
                    std::cerr << "\n";
                std::cerr.flush();
            };
        }
        results = runScenarioGrid(grid, jobs, on_progress);
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    // Cells run rows-outer, protocols-inner; each is labelled
    // load=<token>.<protocol> (or cv=, arb-overhead=) in metrics and
    // verdicts. The generic table's estimate columns are the CSV's, at
    // two decimals; a grid's [table] sections replace it.
    std::vector<std::string> headers{"load", "protocol"};
    for (const ResultEstimate &e : kResultEstimates)
        if (e.csv != CsvForm::kAbsent)
            headers.push_back(e.key);
    headers.push_back("ms");
    TextTable table(headers);
    std::vector<std::string> labels;
    for (std::size_t cell = 0; cell < results.size(); ++cell) {
        const ScenarioResult &result = results[cell];
        const std::string &token = spec.cellLoadToken(cell);
        const std::string &key = spec.cellProtocolSpec(cell);
        labels.push_back(spec.cellLabel(cell) + "." + key);
        if (csv != nullptr) {
            writeSummaryCsvRow(result, spec.cellLabel(cell), *csv);
            continue;
        }
        std::vector<std::string> row{token, key};
        for (const ResultEstimate &e : kResultEstimates) {
            if (e.csv == CsvForm::kValue)
                row.push_back(formatFixed(e.compute(result).value, 2));
            else if (e.csv == CsvForm::kValueAndHalfWidth)
                row.push_back(formatEstimate(e.compute(result)));
        }
        row.push_back(formatFixed(result.elapsedMs, 0));
        table.addRow(std::move(row));
    }
    if (csv != nullptr) {
        std::cout << "wrote " << results.size() << " rows to "
                  << parser.getString("csv") << "\n";
    } else if (!spec.tables.empty()) {
        printGridTables(spec, results, std::cout);
    } else {
        table.print(std::cout);
    }
    if (tuning.health)
        printHealthLines(results, labels);
    // Canonical provenance: identical scenario.spec text for --grid and
    // for the equivalent flag invocation.
    if (!writeTraceOut("busarb_sweep", parser, results) ||
        !writeSnapshotOut("busarb_sweep", parser, results) ||
        !writeMetricsOut("busarb_sweep", parser, results, labels,
                         spec.format()) ||
        // Host wall-clock per cell, kept out of the results CSV, which
        // must stay byte-identical across job counts.
        !writeArtifact("busarb_sweep", parser.getString("timing-csv"),
                       "per-cell timing", [&](std::ostream &out) {
                           out << "label,protocol,elapsed_ms\n";
                           for (std::size_t i = 0; i < results.size(); ++i)
                               out << spec.cellLabel(i) << ","
                                   << spec.cellProtocolSpec(i) << ","
                                   << formatFixed(results[i].elapsedMs, 3)
                                   << "\n";
                       }))
        return 1;
    // Timing goes to stdout, never into the results CSV: that file must
    // stay byte-identical across job counts.
    std::cout << "jobs=" << jobs << " elapsed_ms="
              << formatFixed(elapsed_ms, 0) << "\n";
    return healthStrictStatus("busarb_sweep", parser, results, labels,
                              "cell");
}
