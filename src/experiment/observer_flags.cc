#include "experiment/observer_flags.hh"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>

#include "obs/export_format.hh"
#include "obs/metrics_registry.hh"
#include "sim/types.hh"

namespace busarb {

namespace {

// The variant alternatives of ObserverKnob::field, in order.
enum KnobType { kBool, kInt, kDouble };

constexpr double kMaxInt = std::numeric_limits<int>::max();
constexpr double kMaxDouble = std::numeric_limits<double>::max();
constexpr double kOneTick = 1.0 / kTicksPerUnit;

/** Tick-valued knobs stay far below tick overflow. */
constexpr double kMaxUnits = 1e12;

constexpr unsigned kRunTools = kSimTool | kSweepTool;

// The artifact and gate flags that go with the knobs.
constexpr const char *kTraceOut = "trace-out";
constexpr const char *kSnapshotOut = "snapshot-out";
constexpr const char *kMetricsOut = "metrics-out";
constexpr const char *kHealthStrict = "health-strict";

double
get(const ObserverConfig &config, const ObserverKnob &knob)
{
    return std::visit(
        [&](auto member) { return static_cast<double>(config.*member); },
        knob.field);
}

void
set(ObserverConfig &config, const ObserverKnob &knob, double value)
{
    std::visit(
        [&](auto member) {
            using T = std::remove_reference_t<decltype(config.*member)>;
            config.*member = static_cast<T>(value);
        },
        knob.field);
}

std::string
valueText(const ObserverConfig &config, const ObserverKnob &knob)
{
    const double v = get(config, knob);
    return knob.field.index() == kDouble
               ? formatDouble(v)
               : formatInt(static_cast<std::int64_t>(v));
}

bool
inRange(const ObserverKnob &knob, double v)
{
    return v >= knob.min && v <= knob.max; // false for NaN
}

bool
flagSet(const ArgParser &parser, const char *flag)
{
    return parser.declares(flag) && parser.getBool(flag);
}

std::string
flagPath(const ArgParser &parser, const char *flag)
{
    return parser.declares(flag) ? parser.getString(flag) : "";
}

[[noreturn]] void
usageError(const std::string &program, const std::string &message)
{
    std::cerr << program << ": " << message << "\n";
    std::exit(2);
}

} // namespace

const std::vector<ObserverKnob> &
observerKnobs()
{
    static const std::vector<ObserverKnob> knobs = {
        {"", "trace", &ObserverConfig::captureTrace, kRunTools,
         "set by --trace-out"},
        {"flight-recorder", "", &ObserverConfig::flightRecorder, kSimTool,
         "retain the last M bus events and dump them to stderr if a run "
         "panics (0 disables)",
         0.0, kMaxInt, ">= 0"},
        {"fairness", "fairness", &ObserverConfig::fairness, kRunTools,
         "attach the fairness auditor: per-agent bypass counts with N-1 "
         "bound checking, starvation watchdog, Jain indices (fairness.* "
         "metrics)"},
        {"fairness-window", "fairness-window",
         &ObserverConfig::fairnessWindow, kRunTools | kAuditTool,
         "fairness window width, transaction units", kOneTick, kMaxUnits,
         "at least one tick (1e-06) and at most 1e12"},
        {"bypass-bound", "bypass-bound", &ObserverConfig::bypassBound,
         kRunTools | kAuditTool,
         "audited bypass bound per grant (0 = the paper's RR guarantee, "
         "N-1)",
         0.0, kMaxInt, ">= 0"},
        {"health", "health", &ObserverConfig::health, kRunTools,
         "attach the run-health monitor: batch-means convergence "
         "diagnostics (relative CI half-width, lag-1 autocorrelation, MSER "
         "warm-up detection) with a per-run verdict and health.* metrics"},
        {"health-rel-hw", "health-rel-hw", &ObserverConfig::healthRelHw,
         kRunTools,
         "relative CI half-width target (the paper's \"within 5%\")",
         std::numeric_limits<double>::min(), kMaxDouble, "> 0 and finite"},
        {"health-lag1", "health-lag1", &ObserverConfig::healthLag1,
         kRunTools,
         "|lag-1| autocorrelation threshold for batch-mean independence",
         std::numeric_limits<double>::min(), kMaxDouble, "> 0 and finite"},
        {"snapshot-every", "snapshot-every", &ObserverConfig::snapshotEvery,
         kRunTools | kReportTool | kAuditTool,
         "fairness snapshot interval in simulated transaction units (0 "
         "disables; turns on the fairness auditor)",
         0.0, kMaxUnits, ">= 0 and at most 1e12"},
        {"", "health-snapshots", &ObserverConfig::healthSnapshots, kRunTools,
         "set by --snapshot-out with --health"},
    };
    return knobs;
}

std::string
observerKey(const ObserverConfig &config)
{
    std::string key;
    for (const ObserverKnob &knob : observerKnobs()) {
        if (*knob.key == '\0')
            continue;
        if (!key.empty())
            key += ';';
        key.append(knob.key).append("=").append(valueText(config, knob));
    }
    return key;
}

bool
parseObserverKey(const std::string &text, ObserverConfig &out,
                 std::string &error)
{
    const std::vector<ObserverKnob> &knobs = observerKnobs();
    ObserverConfig config = out;
    std::set<std::string> seen;
    std::istringstream is(text);
    std::string field;
    while (std::getline(is, field, ';')) {
        const std::size_t eq = field.find('=');
        const std::string name = field.substr(0, eq);
        const auto knob =
            std::find_if(knobs.begin(), knobs.end(), [&](const auto &k) {
                return *k.key != '\0' && name == k.key;
            });
        // A value must be in range and in its canonical spelling.
        const std::string value =
            eq == std::string::npos ? "" : field.substr(eq + 1);
        double v = 0.0;
        const bool ok = knob != knobs.end() && parseDouble(value, v) &&
                        inRange(*knob, v) && seen.insert(name).second;
        if (ok)
            set(config, *knob, v);
        if (!ok || valueText(config, *knob) != value) {
            error = "bad tuning field '" + field + "'";
            return false;
        }
    }
    if (seen.size() != static_cast<std::size_t>(std::count_if(
                           knobs.begin(), knobs.end(),
                           [](const auto &k) { return *k.key != '\0'; }))) {
        error = "incomplete tuning key '" + text + "'";
        return false;
    }
    out = config;
    return true;
}

void
addObserverFlags(ArgParser &parser, ObserverTool tool)
{
    const ObserverConfig defaults;
    for (const ObserverKnob &knob : observerKnobs()) {
        if (*knob.flag == '\0' || (knob.tools & tool) == 0)
            continue;
        const double d = get(defaults, knob);
        if (knob.field.index() == kBool)
            parser.addBoolFlag(knob.flag, d != 0.0, knob.help);
        else if (knob.field.index() == kInt)
            parser.addIntFlag(knob.flag, static_cast<long>(d), knob.help);
        else
            parser.addDoubleFlag(knob.flag, d, knob.help);
    }
    if ((tool & kRunTools) != 0) {
        parser.addStringFlag(kTraceOut, "",
                             "capture a binary event trace of every run "
                             "to this file (decode with busarb_trace)");
        parser.addStringFlag(kMetricsOut, "",
                             "write merged run metrics to this file (.json "
                             "for JSON, anything else for CSV)");
        parser.addBoolFlag(kHealthStrict, false,
                           "like --health, but exit with status 3 if any "
                           "run's verdict is not 'converged'");
    }
    if ((tool & (kRunTools | kAuditTool)) != 0) {
        parser.addStringFlag(kSnapshotOut, "",
                             "write deterministic snapshots (JSONL, "
                             "byte-identical at any --jobs or --shards) "
                             "to this file");
    }
}

ObserverConfig
observerConfigFromFlagsOrExit(const std::string &program,
                              const ArgParser &parser,
                              SnapshotSources sources)
{
    ObserverConfig config;
    for (const ObserverKnob &knob : observerKnobs()) {
        if (*knob.flag == '\0' || !parser.declares(knob.flag))
            continue;
        const double v = knob.field.index() == kBool
                             ? parser.getBool(knob.flag)
                         : knob.field.index() == kInt
                             ? parser.getInt(knob.flag)
                             : parser.getDouble(knob.flag);
        if (!inRange(knob, v)) {
            usageError(program, std::string("--") + knob.flag +
                                    " must be " + knob.rule + ", got " +
                                    formatDouble(v));
        }
        set(config, knob, v);
    }
    // Artifact destinations fail in seconds, not after the run.
    for (const char *flag : {kTraceOut, kSnapshotOut, kMetricsOut})
        requireParentDirOrExit(program, flag, flagPath(parser, flag));

    // The implication rules.
    const bool snapshot_out = !flagPath(parser, kSnapshotOut).empty();
    config.captureTrace = !flagPath(parser, kTraceOut).empty();
    config.health = config.health || flagSet(parser, kHealthStrict);
    config.healthSnapshots = config.health && snapshot_out;
    config.fairness = config.auditsFairness();

    if (sources != SnapshotSources::kNone) {
        if (config.snapshotEvery > 0.0 && !snapshot_out)
            usageError(program, "--snapshot-every requires --snapshot-out");
        if (snapshot_out && config.snapshotEvery <= 0.0 && !config.health) {
            usageError(program,
                       std::string("--snapshot-out requires --snapshot-every") +
                           (sources == SnapshotSources::kIntervalOrHealth
                                ? " and/or --health"
                                : ""));
        }
    }
    return config;
}

void
printHealthLines(const std::vector<ScenarioResult> &results,
                 const std::vector<std::string> &labels)
{
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::cout << "health[" << labels[i] << "]: ";
        results[i].health.print(std::cout);
        std::cout << "\n";
    }
}

bool
writeTraceOut(const std::string &program, const ArgParser &parser,
              const std::vector<ScenarioResult> &results)
{
    // One self-contained chunk per run.
    std::size_t bytes = 0;
    for (const ScenarioResult &r : results)
        bytes += r.binaryTrace.size();
    return writeArtifact(
        program, flagPath(parser, kTraceOut),
        "binary trace (" + std::to_string(results.size()) + " chunk(s), " +
            std::to_string(bytes) + " bytes)",
        [&](std::ostream &out) {
            for (const ScenarioResult &r : results)
                out.write(reinterpret_cast<const char *>(
                              r.binaryTrace.data()),
                          static_cast<std::streamsize>(r.binaryTrace.size()));
        });
}

bool
writeSnapshotOut(const std::string &program, const ArgParser &parser,
                 const std::vector<ScenarioResult> &results)
{
    std::ptrdiff_t lines = 0;
    for (const ScenarioResult &r : results)
        for (const std::string *s : {&r.fairnessSnapshots, &r.healthSnapshots})
            lines += std::count(s->begin(), s->end(), '\n');
    // Per-run streams, fairness first, then health.
    return writeArtifact(program, flagPath(parser, kSnapshotOut),
                         std::to_string(lines) + " snapshot line(s)",
                         [&](std::ostream &out) {
                             for (const ScenarioResult &r : results)
                                 out << r.fairnessSnapshots
                                     << r.healthSnapshots;
                         });
}

bool
writeMetricsOut(const std::string &program, const ArgParser &parser,
                const std::vector<ScenarioResult> &results,
                const std::vector<std::string> &labels,
                const std::string &scenario_text)
{
    const std::string path = flagPath(parser, kMetricsOut);
    if (path.empty())
        return true;
    MetricsRegistry merged;
    for (std::size_t i = 0; i < results.size(); ++i)
        merged.mergeFrom(results[i].metrics, labels[i] + ".");
    merged.setAnnotation("scenario.spec", scenario_text);
    if (!merged.writeFile(path)) {
        std::cerr << program << ": cannot write " << path << "\n";
        return false;
    }
    std::cout << "wrote metrics to " << path << "\n";
    return true;
}

int
healthStrictStatus(const std::string &program, const ArgParser &parser,
                   const std::vector<ScenarioResult> &results,
                   const std::vector<std::string> &labels, const char *noun)
{
    if (!flagSet(parser, kHealthStrict))
        return 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].health.verdict != ConvergenceVerdict::kConverged) {
            // Exit 3 is reserved for verdict failures, distinct from I/O
            // errors (1) and usage errors (2), so scripts can gate on it.
            std::cerr << program << ": " << noun << " " << labels[i]
                      << " is " << results[i].health.verdictLabel()
                      << " (--" << kHealthStrict << ")\n";
            return 3;
        }
    }
    return 0;
}

} // namespace busarb
