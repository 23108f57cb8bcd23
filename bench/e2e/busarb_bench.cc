/**
 * @file
 * busarb_bench — the end-to-end benchmark of busarb (see README.md).
 *
 *   busarb_bench --root R --build B --workload NAME --seed S --seconds T
 *                --trace 0|1 [--out runs.jsonl] [--print-golden]
 *   busarb_bench --root R --build B --all --seed S --seconds T --trace 0|1
 *   busarb_bench --root R --compare A.jsonl B.jsonl
 *
 * --trace 0 runs the real busarb_sweep as a child process on each
 * workload's generated grid and times it from outside: one untimed
 * warm-up, then for T seconds per workload rounds of a burst of set-up
 * runs (every cell shrunk to one completion) and a timed rep, round-robin
 * across workloads. Every run's outputs are checked (exit status, CSV rows,
 * digests that repeat and match the committed goldens, the paper
 * anchors).
 *
 * --trace 1 runs busarb_bench_layers, which repeats the grid in-process
 * with timing wrappers around each layer, and times the grid in-process
 * at --jobs 2 against a sharded fleet.
 *
 * The metric names, units and bounds come from BENCHMARK.json at the
 * root. The last line of stdout is one JSON object with the keys
 * correct, attempted, failed and metrics. Exit status: 0 when every
 * output was correct, 1 when some cell failed, 2 on a usage or set-up
 * error (no result line then).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "child.hh"
#include "json.hh"
#include "workloads.hh"

namespace fs = std::filesystem;

namespace e2e {
namespace {

constexpr std::uint64_t kDefaultSeed = 1592642302;

/** Rounds (set-up runs and a timed rep) even when --seconds ran out. */
constexpr int kMinRounds = 3;

/**
 * Set-up runs back to back in each round. A set-up run takes 3-30 ms,
 * mostly process start, so one sample follows every hiccup of the host;
 * the round keeps the fastest of the burst.
 */
constexpr int kSetupBurst = 12;

/**
 * Seconds of a --trace 1 run left for the probes and the overhead pairs
 * after the traced passes, so the whole run takes about --seconds.
 */
constexpr double kLayersReserve = 10.0;

/** In-process/sharded run pairs behind dist.overhead_s. */
constexpr int kOverheadPairs = 3;

/** A child still running after this long is killed; its cells fail. */
constexpr unsigned kChildTimeoutSeconds = 150;

using Clock = std::chrono::steady_clock;

[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "busarb_bench: " << message << "\n";
    std::exit(2);
}

struct Options
{
    std::string root = ".";
    std::string build;
    std::string golden;
    std::string out;
    std::vector<std::string> workloads;
    bool all = false;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int trace = 0;
    bool printGolden = false;
    std::vector<std::string> compare;
};

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    const auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            usageError(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    const auto number = [](const std::string &flag, const std::string &text,
                           double low, double high) {
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (text.empty() || *end != '\0' || !(v >= low && v <= high))
            usageError("--" + flag + " expects a number in [" +
                       std::to_string(low) + ", " + std::to_string(high) +
                       "], got '" + text + "'");
        return v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root") {
            opt.root = value(i);
        } else if (arg == "--build") {
            opt.build = value(i);
        } else if (arg == "--golden") {
            opt.golden = value(i);
        } else if (arg == "--out") {
            opt.out = value(i);
        } else if (arg == "--workload") {
            opt.workloads.push_back(value(i));
        } else if (arg == "--all") {
            opt.all = true;
        } else if (arg == "--seed") {
            const std::string text = value(i);
            char *end = nullptr;
            opt.seed = std::strtoull(text.c_str(), &end, 10);
            if (text.empty() || *end != '\0' || text[0] == '-')
                usageError("--seed expects an unsigned integer, got '" +
                           text + "'");
        } else if (arg == "--seconds") {
            opt.seconds = number("seconds", value(i), 0.0, 3600.0);
        } else if (arg == "--trace") {
            const std::string text = value(i);
            if (text != "0" && text != "1")
                usageError("--trace expects 0 or 1, got '" + text + "'");
            opt.trace = text == "1";
        } else if (arg == "--print-golden") {
            opt.printGolden = true;
        } else if (arg == "--compare") {
            opt.compare.push_back(value(i));
            opt.compare.push_back(value(i));
        } else if (arg == "--help" || arg == "-h") {
            std::cout << "usage: busarb_bench --workload NAME|--all --seed S "
                         "--seconds T --trace 0|1 [--out FILE]\n"
                         "       busarb_bench --compare A.jsonl B.jsonl\n"
                         "See bench/e2e/README.md.\n";
            std::exit(0);
        } else {
            usageError("unknown argument '" + arg + "'");
        }
    }
    if (opt.build.empty())
        opt.build = opt.root + "/.bench_build";
    if (opt.golden.empty())
        opt.golden = opt.root + "/bench/e2e/golden";
    return opt;
}

// ------------------------------------------------------------- metrics

struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better;
    double bound = 0.0;
};

/** Load the end_to_end (trace 0) or per_layer (trace 1) list. */
std::vector<MetricDef>
loadMetricDefs(const std::string &root, const char *list)
{
    const std::string path = root + "/BENCHMARK.json";
    std::string text;
    std::string error;
    Json doc;
    if (!readFile(path, text))
        usageError("cannot read " + path);
    if (!parseJson(text, doc, error))
        usageError(path + ": " + error);
    const Json *entries = doc.find(list);
    if (entries == nullptr || entries->type != Json::Type::kArray)
        usageError(path + " has no '" + list + "' list");
    std::vector<MetricDef> defs;
    for (const Json &entry : entries->array) {
        MetricDef def;
        const Json *name = entry.find("name");
        const Json *unit = entry.find("unit");
        const Json *better = entry.find("better");
        const Json *bound = entry.find("bound");
        if (name == nullptr || unit == nullptr || better == nullptr)
            usageError(path + ": a '" + list +
                       "' entry lacks name, unit or better");
        def.name = name->string;
        def.unit = unit->string;
        def.better = better->string;
        def.bound = bound != nullptr ? bound->number : 0.0;
        defs.push_back(def);
    }
    return defs;
}

/** Median and quartiles of a sample set. */
struct Summary
{
    double value = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

/**
 * Median, and quartiles by the rule of Python's
 * statistics.quantiles(n=4) ('exclusive'), so spreads printed here are
 * the ones that tool computes.
 */
Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    s.value = n % 2 == 1 ? samples[n / 2]
                         : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
    if (n < 2) {
        s.q1 = s.q3 = s.value;
        return s;
    }
    const auto quartile = [&](long long i) {
        const long long m = static_cast<long long>(n) + 1;
        const long long j =
            std::clamp<long long>(i * m / 4, 1, static_cast<long long>(n) - 1);
        const double delta = static_cast<double>(i * m - j * 4);
        return (samples[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                samples[static_cast<std::size_t>(j)] * delta) /
               4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

// ----------------------------------------------------------- workloads

struct Context
{
    Options opt;
    std::string sweep;
    std::string layers;
    std::string work;
};

/** One workload made ready for a run: generated grids and goldens. */
struct Prepared
{
    const Workload *workload = nullptr;
    std::string dir;
    std::string grid;
    std::string setupGrid;
    GridShape shape;
    std::map<std::string, std::uint64_t> golden;
};

/** What one run found for one workload. */
struct Outcome
{
    std::map<std::string, Summary> metrics;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> notes;

    void
    fail(std::size_t cells, const std::string &why)
    {
        failed += cells;
        notes.push_back("FAILED (" + std::to_string(cells) +
                        " cells): " + why);
    }
};

Prepared
prepare(const Context &ctx, const Workload &workload)
{
    Prepared p;
    p.workload = &workload;
    p.dir = ctx.work + "/" + workload.name;
    std::error_code ec;
    fs::create_directories(p.dir, ec);
    const std::string source =
        ctx.opt.root + "/bench/e2e/workloads/" + workload.name + ".grid";
    std::string text;
    std::string grid;
    std::string setup;
    std::string error;
    const std::string seed = std::to_string(ctx.opt.seed);
    if (!readFile(source, text))
        usageError("cannot read " + source);
    if (!rewriteRun(text, {{"seed", seed}}, grid, error) ||
        !rewriteRun(text,
                    {{"seed", seed},
                     {"batches", "1"},
                     {"batch-size", "1"},
                     {"warmup", "0"}},
                    setup, error) ||
        !gridShape(grid, p.shape, error) ||
        !goldenDigests(ctx.opt.golden, workload.name, ctx.opt.seed,
                       p.golden, error))
        usageError(source + ": " + error);
    p.grid = p.dir + "/run.grid";
    p.setupGrid = p.dir + "/setup.grid";
    std::ofstream(p.grid) << grid;
    std::ofstream(p.setupGrid) << setup;
    return p;
}

/** How busarb_sweep executes a grid. */
enum class Mode {
    kWorkload, ///< the workload's own mode (serial or sharded)
    kSerial,   ///< in-process, --jobs 1
    kParallel, ///< in-process, --jobs 2
    kSharded,  ///< --shards 8 --fleet 2, a fresh shard directory
};

struct Invocation
{
    ChildRun child;
    Artifacts artifacts;
    std::string error;
};

Invocation
invoke(const Context &ctx, const Prepared &p, const std::string &grid,
       const std::string &tag, Mode mode)
{
    const std::string out = p.dir + "/" + tag;
    std::error_code ec;
    fs::remove_all(out, ec);
    fs::create_directories(out, ec);
    std::vector<std::string> args = {ctx.sweep, "--grid", grid, "--csv",
                                     out + "/out.csv"};
    for (const auto &flag : p.workload->observe)
        args.push_back(flag[0] == '@' ? out + "/" + flag.substr(1) : flag);
    if (mode == Mode::kWorkload)
        mode = p.workload->sharded ? Mode::kSharded : Mode::kSerial;
    switch (mode) {
      case Mode::kWorkload:
      case Mode::kSerial:
        args.insert(args.end(), {"--jobs", "1"});
        break;
      case Mode::kParallel:
        args.insert(args.end(), {"--jobs", "2"});
        break;
      case Mode::kSharded:
        args.insert(args.end(), {"--jobs", "1", "--shards", "8", "--fleet",
                                 "2", "--shard-dir", out + "/shards"});
        break;
    }
    Invocation inv;
    inv.child = runChild(args, out + "/log.txt", kChildTimeoutSeconds);
    if (!inv.child.ok) {
        inv.error = "busarb_sweep " + inv.child.status + " (log: " + out +
                    "/log.txt)";
    } else if (readArtifacts(*p.workload, out, inv.artifacts, inv.error) &&
               inv.artifacts.rows != p.shape.cells) {
        inv.error = "CSV has " + std::to_string(inv.artifacts.rows) +
                    " rows, expected " + std::to_string(p.shape.cells);
    }
    return inv;
}

/**
 * Check a full run against the goldens and the paper anchors; every
 * cell of the run counts as attempted.
 */
void
checkFullRun(const Context &ctx, const Prepared &p, const Invocation &inv,
             const std::string &what, Outcome &out)
{
    const std::size_t cells = p.shape.cells;
    out.attempted += cells;
    if (!inv.error.empty()) {
        out.fail(cells, what + ": " + inv.error);
        return;
    }
    for (const auto &[name, digest] : inv.artifacts.digests) {
        if (ctx.opt.printGolden)
            std::cout << "golden/" << p.workload->name << ".txt: "
                      << ctx.opt.seed << " " << name << " " << hex64(digest)
                      << "\n";
    }
    for (const auto &[name, digest] : p.golden) {
        const auto it = inv.artifacts.digests.find(name);
        if (it == inv.artifacts.digests.end() || it->second != digest) {
            out.fail(cells, what + ": " + name + " does not match golden " +
                                hex64(digest) + " for seed " +
                                std::to_string(ctx.opt.seed));
            return;
        }
    }
    const AnchorCheck anchors = checkAnchors(*p.workload, inv.artifacts.csv);
    if (anchors.checked > 0) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "paper_wait_rel_err %.6g (max over %zu cells vs Table "
                      "4.2(a))",
                      anchors.maxRelErr, anchors.checked);
        out.notes.push_back(line);
    }
    if (anchors.missed > 0)
        out.fail(anchors.missed, what + ": outside the paper-anchor "
                                        "tolerance 0.05 + 0.01 W");
}

// ---------------------------------------------------------- measuring

void
measureEndToEnd(const Context &ctx, const std::vector<Prepared> &ps,
                std::vector<Outcome> &outs)
{
    const std::size_t count = ps.size();
    std::vector<std::vector<double>> setups(count);
    std::vector<std::vector<double>> walls(count);
    std::vector<std::vector<double>> rss(count);
    std::vector<std::map<std::string, std::uint64_t>> reference(count);

    // Untimed warm-up: the reference every timed rep must reproduce. A
    // sharded workload must also match the same grid run in-process.
    for (std::size_t i = 0; i < count; ++i) {
        const Invocation inv =
            invoke(ctx, ps[i], ps[i].grid, "run", Mode::kWorkload);
        checkFullRun(ctx, ps[i], inv, "warm-up run", outs[i]);
        reference[i] = inv.artifacts.digests;
        if (ps[i].workload->sharded) {
            const Invocation local =
                invoke(ctx, ps[i], ps[i].grid, "in-process", Mode::kParallel);
            outs[i].attempted += ps[i].shape.cells;
            if (!local.error.empty() ||
                local.artifacts.digests != reference[i])
                outs[i].fail(ps[i].shape.cells,
                             "sharded outputs differ from the in-process "
                             "run " +
                                 local.error);
        }
    }

    // Rounds of a burst of set-up runs and one timed rep per workload,
    // round-robin across workloads so host drift hits every workload and
    // both metrics alike.
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               ctx.opt.seconds * static_cast<double>(count)));
    for (int round = 0; round < kMinRounds || Clock::now() < deadline;
         ++round) {
        for (std::size_t i = 0; i < count; ++i) {
            double fastest = 0.0;
            for (int k = 0; k < kSetupBurst; ++k) {
                const Invocation setup = invoke(ctx, ps[i], ps[i].setupGrid,
                                                "setup", Mode::kWorkload);
                outs[i].attempted += ps[i].shape.cells;
                if (!setup.error.empty())
                    outs[i].fail(ps[i].shape.cells,
                                 "set-up run: " + setup.error);
                else if (fastest == 0.0 || setup.child.wallSeconds < fastest)
                    fastest = setup.child.wallSeconds;
            }
            if (fastest > 0.0)
                setups[i].push_back(fastest);

            const Invocation inv =
                invoke(ctx, ps[i], ps[i].grid, "run", Mode::kWorkload);
            outs[i].attempted += ps[i].shape.cells;
            if (!inv.error.empty()) {
                outs[i].fail(ps[i].shape.cells, "timed run: " + inv.error);
            } else if (inv.artifacts.digests != reference[i]) {
                outs[i].fail(ps[i].shape.cells,
                             "timed run: outputs differ from the warm-up "
                             "run");
            } else {
                walls[i].push_back(inv.child.wallSeconds);
                rss[i].push_back(inv.child.maxRssMb);
            }
        }
    }

    for (std::size_t i = 0; i < count; ++i) {
        const double tx = static_cast<double>(ps[i].shape.cells) *
                          ps[i].shape.txPerCell;
        std::vector<double> rates;
        for (const double wall : walls[i])
            rates.push_back(tx / wall);
        // The fastest rep, with the quartiles of all reps alongside. On
        // a shared host, neighbours slow every rep of a period by up to
        // 1.8x for tens of seconds; the best rep is the estimate of the
        // program's own speed that repeats from run to run.
        Summary rate = summarize(rates);
        if (!rates.empty())
            rate.value = *std::max_element(rates.begin(), rates.end());
        outs[i].metrics["sim_tx_per_s"] = rate;
        outs[i].metrics["setup_s"] = summarize(setups[i]);
        outs[i].metrics["peak_rss_mb"] = summarize(rss[i]);
    }
}

/** @return The last line of `text` that starts with '{'. */
std::string
lastJsonLine(const std::string &text)
{
    std::istringstream is(text);
    std::string line;
    std::string last;
    while (std::getline(is, line))
        if (!line.empty() && line[0] == '{')
            last = line;
    return last;
}

void
measureLayers(const Context &ctx, const Prepared &p, Outcome &out)
{
    const std::size_t cells = p.shape.cells;
    const std::string dir = p.dir + "/layers";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    std::vector<std::string> args = {
        ctx.layers, "--grid",      p.grid,
        "--name",   p.workload->name,
        "--seconds",
        std::to_string(std::max(0.0, ctx.opt.seconds - kLayersReserve)),
        "--work",   dir,
        "--spans-dir", p.dir + "/trace"};
    for (const auto &flag : p.workload->observe)
        args.push_back(flag[0] == '@' ? dir + "/" + flag.substr(1) : flag);
    const ChildRun run = runChild(args, dir + "/log.txt", kChildTimeoutSeconds);
    std::string log;
    readFile(dir + "/log.txt", log);
    Json result;
    std::string error;
    if (!run.ok || !parseJson(lastJsonLine(log), result, error)) {
        out.attempted += cells;
        out.fail(cells, "busarb_bench_layers " + run.status + " " + error +
                            " (log: " + dir + "/log.txt)");
    } else {
        const auto count = [&](const char *key) {
            const Json *v = result.find(key);
            return v != nullptr ? static_cast<std::size_t>(v->number) : 0;
        };
        out.attempted += count("attempted");
        out.failed += count("failed");
        if (const Json *notes = result.find("notes"))
            for (const Json &note : notes->array)
                out.notes.push_back(note.string);
        if (const Json *metrics = result.find("metrics")) {
            for (const auto &[name, value] : metrics->object)
                out.metrics[name] = {value.number, value.number,
                                     value.number, count("reps")};
        }
    }

    // Orchestration cost, timed from outside: the same grid in-process at
    // --jobs 2 and as a fleet of two workers, in alternating order. Every
    // run must agree byte for byte with the first.
    std::vector<double> overhead;
    std::map<std::string, std::uint64_t> reference;
    for (int pair = 0; pair < kOverheadPairs; ++pair) {
        Invocation runs[2];
        const Mode order[2] = {pair % 2 ? Mode::kSharded : Mode::kParallel,
                               pair % 2 ? Mode::kParallel : Mode::kSharded};
        for (int k = 0; k < 2; ++k) {
            runs[k] = invoke(ctx, p, p.grid,
                             order[k] == Mode::kSharded ? "sharded"
                                                        : "in-process",
                             order[k]);
            if (pair == 0 && k == 0) {
                checkFullRun(ctx, p, runs[k], "in-process run", out);
                reference = runs[k].artifacts.digests;
                continue;
            }
            out.attempted += cells;
            if (!runs[k].error.empty() ||
                runs[k].artifacts.digests != reference)
                out.fail(cells, "sharded and in-process outputs differ " +
                                    runs[k].error);
        }
        const double sign = order[0] == Mode::kSharded ? 1.0 : -1.0;
        overhead.push_back(sign * (runs[0].child.wallSeconds -
                                   runs[1].child.wallSeconds));
    }
    out.metrics["dist.overhead_s"] = summarize(overhead);
}

// ------------------------------------------------------------ output

/**
 * Print every metric BENCHMARK.json names, append the run to --out, and
 * print the result line.
 *
 * @return The exit status.
 */
int
report(const Context &ctx, const std::vector<MetricDef> &defs,
       const std::vector<Prepared> &ps, const std::vector<Outcome> &outs)
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::string metrics_json;
    for (std::size_t i = 0; i < ps.size(); ++i) {
        const std::string &name = ps[i].workload->name;
        const Outcome &o = outs[i];
        attempted += o.attempted;
        failed += o.failed;
        for (const auto &note : o.notes)
            std::cout << name << ": " << note << "\n";
        std::string run_json;
        for (const MetricDef &def : defs) {
            const auto it = o.metrics.find(def.name);
            if (it == o.metrics.end() || it->second.n == 0) {
                if (o.failed > 0)
                    continue; // the failure is already reported
                std::cerr << "busarb_bench: " << name << ": metric "
                          << def.name << " was not measured\n";
                return 2;
            }
            const Summary &s = it->second;
            char line[256];
            std::snprintf(line, sizeof(line),
                          "%-20s %-28s %14.6g %-6s q1 %-12.6g q3 %-12.6g n %zu",
                          name.c_str(), def.name.c_str(), s.value,
                          def.unit.c_str(), s.q1, s.q3, s.n);
            std::cout << line << "\n";
            const std::string key =
                ps.size() == 1 ? def.name : name + ":" + def.name;
            metrics_json += (metrics_json.empty() ? "" : ", ") +
                            jsonString(key) + ": {\"value\": " +
                            jsonNumber(s.value) + ", \"unit\": " +
                            jsonString(def.unit) + "}";
            run_json += (run_json.empty() ? "" : ", ") +
                        jsonString(def.name) + ": {\"value\": " +
                        jsonNumber(s.value) + ", \"unit\": " +
                        jsonString(def.unit) + ", \"q1\": " +
                        jsonNumber(s.q1) + ", \"q3\": " + jsonNumber(s.q3) +
                        ", \"n\": " + std::to_string(s.n) + "}";
        }
        if (!ctx.opt.out.empty()) {
            std::ofstream file(ctx.opt.out, std::ios::app);
            file << "{\"workload\": " << jsonString(name)
                 << ", \"seed\": " << ctx.opt.seed
                 << ", \"trace\": " << ctx.opt.trace
                 << ", \"attempted\": " << o.attempted
                 << ", \"failed\": " << o.failed << ", \"metrics\": {"
                 << run_json << "}}\n";
            if (!file)
                usageError("cannot append to " + ctx.opt.out);
        }
    }
    const bool correct = failed == 0;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {"
              << metrics_json << "}}" << std::endl;
    return correct ? 0 : 1;
}

// ----------------------------------------------------------- compare

/** Runs of one file, by workload (trace-0 lines only). */
std::map<std::string, std::vector<Json>>
loadRuns(const std::string &path)
{
    std::string text;
    if (!readFile(path, text))
        usageError("cannot read " + path);
    std::map<std::string, std::vector<Json>> runs;
    std::istringstream is(text);
    std::string line;
    int number = 0;
    while (std::getline(is, line)) {
        ++number;
        if (line.empty())
            continue;
        Json run;
        std::string error;
        if (!parseJson(line, run, error))
            usageError(path + ":" + std::to_string(number) + ": " + error);
        const Json *workload = run.find("workload");
        const Json *trace = run.find("trace");
        if (workload == nullptr || (trace != nullptr && trace->number != 0))
            continue;
        runs[workload->string].push_back(std::move(run));
    }
    return runs;
}

/**
 * One side of a comparison: medians and quartiles across its runs, or
 * the single run's own quartiles over its reps.
 */
Summary
sideSummary(const std::vector<Json> &runs, const std::string &metric)
{
    std::vector<double> values;
    Summary single;
    for (const Json &run : runs) {
        const Json *metrics = run.find("metrics");
        const Json *m = metrics != nullptr ? metrics->find(metric) : nullptr;
        if (m == nullptr || m->find("value") == nullptr)
            continue;
        values.push_back(m->find("value")->number);
        if (const Json *q1 = m->find("q1"))
            single.q1 = q1->number;
        if (const Json *q3 = m->find("q3"))
            single.q3 = q3->number;
    }
    if (values.size() != 1)
        return summarize(values);
    single.value = values[0];
    single.n = 1;
    return single;
}

int
compareRuns(const Options &opt)
{
    const std::vector<MetricDef> defs =
        loadMetricDefs(opt.root, "end_to_end");
    const auto a = loadRuns(opt.compare[0]);
    const auto b = loadRuns(opt.compare[1]);
    bool worse = false;
    std::cout << "A = " << opt.compare[0] << ", B = " << opt.compare[1]
              << "; delta is B relative to A\n";
    for (const auto &[workload, a_runs] : a) {
        const auto it = b.find(workload);
        if (it == b.end())
            continue;
        const auto &b_runs = it->second;
        for (const MetricDef &def : defs) {
            const Summary sa = sideSummary(a_runs, def.name);
            const Summary sb = sideSummary(b_runs, def.name);
            if (sa.n == 0 || sb.n == 0 || sa.value == 0.0)
                continue;
            const double spread =
                std::max((sa.q3 - sa.q1) / std::fabs(sa.value),
                         (sb.q3 - sb.q1) / std::fabs(sb.value));
            const double delta = (sb.value - sa.value) / std::fabs(sa.value);
            const double worse_by = def.better == "higher" ? -delta : delta;
            const bool resolved = spread <= def.bound;
            const char *verdict = !resolved ? "unresolved"
                                  : worse_by > def.bound  ? "worse"
                                  : worse_by < -def.bound ? "better"
                                                          : "within";
            worse = worse || (resolved && worse_by > def.bound);
            char line[320];
            std::snprintf(line, sizeof(line),
                          "%-20s %-14s A %.6g [%.6g, %.6g] n=%zu  B %.6g "
                          "[%.6g, %.6g] n=%zu  %+.2f%% (bound %.0f%%)  %s",
                          workload.c_str(), def.name.c_str(), sa.value, sa.q1,
                          sa.q3, sa.n, sb.value, sb.q1, sb.q3, sb.n,
                          100.0 * delta, 100.0 * def.bound, verdict);
            std::cout << line << "\n";
        }
        const auto failed = [](const std::vector<Json> &runs) {
            double f = 0.0;
            for (const Json &run : runs)
                if (const Json *v = run.find("failed"))
                    f += v->number;
            return f;
        };
        if (failed(b_runs) > failed(a_runs)) {
            worse = true;
            std::cout << workload << ": failed cells A " << failed(a_runs)
                      << ", B " << failed(b_runs) << "  worse\n";
        }
    }
    return worse ? 1 : 0;
}

} // namespace
} // namespace e2e

int
main(int argc, char **argv)
{
    using namespace e2e;
    Context ctx;
    ctx.opt = parseOptions(argc, argv);
    if (!ctx.opt.compare.empty())
        return compareRuns(ctx.opt);

    std::vector<const Workload *> selected;
    if (ctx.opt.all) {
        for (const auto &w : allWorkloads())
            selected.push_back(&w);
    }
    for (const auto &name : ctx.opt.workloads) {
        const Workload *w = findWorkload(name);
        if (w == nullptr)
            usageError("unknown workload '" + name + "'");
        selected.push_back(w);
    }
    if (selected.empty())
        usageError("name a --workload or pass --all");

    const std::vector<MetricDef> defs = loadMetricDefs(
        ctx.opt.root, ctx.opt.trace ? "per_layer" : "end_to_end");
    ctx.sweep = ctx.opt.build + "/busarb/tools/busarb_sweep";
    ctx.layers = ctx.opt.build + "/busarb_bench_layers";
    ctx.work = ctx.opt.build + "/work";
    const std::string needed = ctx.opt.trace ? ctx.layers : ctx.sweep;
    if (!fs::exists(ctx.sweep) || !fs::exists(needed))
        usageError("missing " + needed + "; run bench/e2e/run.sh, which "
                   "builds it");
    becomeSubreaper();

    std::vector<Prepared> prepared;
    for (const Workload *w : selected)
        prepared.push_back(prepare(ctx, *w));
    std::vector<Outcome> outcomes(prepared.size());
    if (ctx.opt.trace) {
        for (std::size_t i = 0; i < prepared.size(); ++i)
            measureLayers(ctx, prepared[i], outcomes[i]);
    } else {
        measureEndToEnd(ctx, prepared, outcomes);
    }
    return report(ctx, defs, prepared, outcomes);
}
