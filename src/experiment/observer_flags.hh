/**
 * @file
 * The observer-knob table and what it drives: the tool flags with their
 * range checks and implication rules, the canonical key that
 * fingerprints a sharded sweep, and the writers for the observer
 * outputs of finished runs.
 *
 * Each row names one ObserverConfig field (obs/observer_config.hh)
 * with its flag, key, tools, help text and valid range; the field's
 * initializer is its default. Tools call addObserverFlags before
 * parsing and observerConfigFromFlagsOrExit after, like
 * addScenarioFlags / scenarioSpecFromFlags.
 */

#ifndef BUSARB_EXPERIMENT_OBSERVER_FLAGS_HH
#define BUSARB_EXPERIMENT_OBSERVER_FLAGS_HH

#include <string>
#include <variant>
#include <vector>

#include "experiment/cli.hh"
#include "experiment/runner.hh"
#include "obs/observer_config.hh"

namespace busarb {

/** The tools that take observer flags, as a bit mask. */
enum ObserverTool : unsigned
{
    kSimTool = 1u << 0,
    kSweepTool = 1u << 1,
    kReportTool = 1u << 2,
    kAuditTool = 1u << 3, ///< busarb_trace audit
};

/** One row of the table: an ObserverConfig field and its interface. */
struct ObserverKnob
{
    /** Flag name; "" when an implication rule sets the knob. */
    const char *flag;

    /** Canonical-key name; "" when no artifact can observe the knob. */
    const char *key;

    /** The field; its type is the knob's type. */
    std::variant<bool ObserverConfig::*, int ObserverConfig::*,
                 double ObserverConfig::*>
        field;

    /** ObserverTool mask of the tools that accept the flag. */
    unsigned tools;

    /** --help text; for a flagless knob, what sets it. */
    const char *help;

    /** Valid values: finite and within [min, max]. */
    double min = 0.0;
    double max = 1.0;

    /** The valid values in words, for the out-of-range message. */
    const char *rule = "";
};

/** @return Every observer knob, in canonical-key order. */
const std::vector<ObserverKnob> &observerKnobs();

/**
 * @return The canonical key: `key=value` for every keyed knob in table
 *         order, joined by ';'. The sweep fingerprint hashes it, so its
 *         text is stable across versions.
 */
std::string observerKey(const ObserverConfig &config);

/**
 * Parse an observerKey() rendering into `out` (unkeyed knobs keep
 * their value). Fails on an unknown, repeated, missing, non-canonical
 * or out-of-range field, with a diagnostic in `error`.
 */
bool parseObserverKey(const std::string &text, ObserverConfig &out,
                      std::string &error);

/**
 * Declare the observer flags `tool` accepts: its knobs, plus the
 * trace and metrics artifacts and the health-strict gate of the tools
 * that run simulations, and the snapshot artifact of the tools that
 * write one.
 */
void addObserverFlags(ArgParser &parser, ObserverTool tool);

/** What may fill a tool's snapshot artifact: its partner rule. */
enum class SnapshotSources
{
    kNone,             ///< no snapshot artifact (a report embeds them)
    kInterval,         ///< the snapshot interval (trace audit)
    kIntervalOrHealth, ///< the interval and/or health (sim, sweep)
};

/**
 * Build the ObserverConfig the flags describe, applying the implication
 * rules: the trace artifact turns on capture, the health-strict gate
 * turns on health, the snapshot artifact with health turns on health
 * snapshots, and a snapshot interval turns on the auditor. Out-of-range
 * values, a snapshot artifact or interval without its partner, and
 * artifact paths into a missing directory exit 2 naming the flag.
 */
ObserverConfig observerConfigFromFlagsOrExit(
    const std::string &program, const ArgParser &parser,
    SnapshotSources sources = SnapshotSources::kNone);

/** Print a `health[label]: <verdict line>` per run. */
void printHealthLines(const std::vector<ScenarioResult> &results,
                      const std::vector<std::string> &labels);

/**
 * Write the --trace-out, --snapshot-out or --metrics-out artifact of
 * finished runs, in result order (the same bytes at any --jobs or
 * --shards count); an unset flag writes nothing. Metrics merge under
 * the prefix `label.` and carry `scenario_text` as their provenance.
 *
 * @retval false The file could not be written.
 */
bool writeTraceOut(const std::string &program, const ArgParser &parser,
                   const std::vector<ScenarioResult> &results);
bool writeSnapshotOut(const std::string &program, const ArgParser &parser,
                      const std::vector<ScenarioResult> &results);
bool writeMetricsOut(const std::string &program, const ArgParser &parser,
                     const std::vector<ScenarioResult> &results,
                     const std::vector<std::string> &labels,
                     const std::string &scenario_text);

/**
 * The --health-strict gate: when it is set and some run's verdict is
 * not converged, name that `<noun> <label>` and return 3.
 *
 * @return Exit status: 3 when the gate fails, else 0.
 */
int healthStrictStatus(const std::string &program, const ArgParser &parser,
                       const std::vector<ScenarioResult> &results,
                       const std::vector<std::string> &labels,
                       const char *noun);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_OBSERVER_FLAGS_HH
