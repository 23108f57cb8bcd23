/**
 * @file
 * Declarative scenario specs: one description of a workload, bus
 * parameters, run controls and sweep axes, buildable either from a
 * scenario file (an in-house INI subset) or from command-line flags.
 *
 * This is the construction seam the tools share: busarb_sim
 * (--scenario), busarb_sweep (--grid) and busarb_report all reduce
 * their inputs to a ScenarioSpec, then build its cells with
 * buildSweepGrid (experiment/sweep_cells.hh). A tool's scenario flags
 * are the file's keys: each flag's value goes through the same per-key
 * check as a file line, and both paths end in the same checks across
 * keys, so a grid file reproduces a flag invocation byte for byte.
 *
 * File format (full-line comments with '#' or ';'):
 *
 *     [workload]
 *     family = equal          # equal | unequal | worst-case
 *     agents = 30
 *     cv = 1
 *     load = 2                # single-run alternative to [sweep] loads
 *     source = open:dist=mmpp # workload-source spec (default closed)
 *     hot-agents = 2          # first K agents run hot (family equal)
 *     hot-factor = 4          # hot agents' per-agent load multiplier
 *
 *     [bus]
 *     arb-overhead = 0.5
 *     settle-timing = false
 *
 *     [run]
 *     batches = 10
 *     batch-size = 8000
 *     warmup = 8000           # defaults to batch-size when omitted
 *     seed = 0x5eedcafe
 *
 *     [protocol]
 *     spec = fcfs2:window=0.05,bits=3,wrap
 *
 *     [sweep]
 *     loads = 0.25 0.5 1 1.5 2       # lists and a:b:c ranges
 *     protocols = rr1 fcfs1 aap1     # spec strings, space-separated
 *
 *     [table]                        # any number; busarb_sweep only
 *     title = Table 4.1(a)
 *     rows = protocols               # default: along the row axis
 *     column = t_N/t_1 = ratio_hi_lo @ 2   # header = quantity @ cell
 *
 * A grid has one row axis: `loads`, or `cv`, `arb-overhead` or
 * `batch-size` in [sweep] (ranges allowed), with at most one load for
 * every row; no axis lists a value twice. A batch-size row warms up
 * for its own batch size unless [run] sets warmup.
 *
 * A [table] quantity is a kResultEstimates key or one of: offered,
 * ratio(a,b) (agents a and b), cdf(t), wait_lag1, lines, and
 * overlap(a,b), overlap_residual(a,b) and overlap_productivity(a,b)
 * (protocols a and b of [sweep] protocols). docs/PROTOCOLS.md defines
 * each.
 *
 * format() renders the canonical round-trip text, which the tools
 * record as the `scenario.spec` metrics annotation for provenance.
 * [table] sections shape only busarb_sweep's stdout, so they stay out
 * of it (and hence out of shard fingerprints and every artifact).
 */

#ifndef BUSARB_EXPERIMENT_SCENARIO_SPEC_HH
#define BUSARB_EXPERIMENT_SCENARIO_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/scenario.hh"

namespace busarb {

class ArgParser;
struct ResultEstimate;

/**
 * One [table] section: a paper-style table busarb_sweep prints in
 * place of its generic one. Each column reads one quantity at one
 * value of the axis the rows do not run along.
 */
struct TableSpec
{
    struct Column
    {
        std::string header;
        std::string quantity; ///< as written, e.g. ratio(1,2)
        std::string at;       ///< a protocol spec, or a row-axis token
        int line = 0;

        /** The resolved quantity. */
        enum class Kind {
            kEstimate,
            kOffered,
            kRatio,
            kCdf,
            kWaitLag1,
            kLines,
            kOverlap,
            kOverlapResidual,
            kOverlapProductivity,
        };
        Kind kind = Kind::kOffered;
        const ResultEstimate *estimate = nullptr; ///< kEstimate
        /** ratio(a,b)'s agents, or overlap*(a,b)'s protocol indices. */
        int a = 0;
        int b = 0;
        double t = 0.0; ///< cdf(t)
    };

    std::string title;
    bool protocolRows = false; ///< rows = protocols; else the row axis
    std::vector<Column> columns;
    int line = 0; ///< of the [table] header
};

/** A declarative scenario: workload, bus, run controls, sweep axes. */
struct ScenarioSpec
{
    // [workload]
    std::string family = "equal"; // equal | unequal | worst-case
    int agents = 10;
    double cv = 1.0;
    double unequalFactor = 0.0; // required > 0 when family = unequal
    int maxOutstanding = 1;

    /**
     * Workload-source spec (experiment/workload_registry.hh grammar),
     * kept verbatim as written. "closed" — the default — reproduces
     * the paper's closed loop byte-for-byte.
     */
    std::string source = "closed";

    /**
     * Hot/cold load mix: the first hotAgents agents offer hotFactor
     * times the per-agent base load (family equal only; 0 disables).
     * Generalizes family=unequal's single hot agent to a hot set.
     */
    int hotAgents = 0;
    double hotFactor = 0.0; // required > 0 when hotAgents > 0

    // [bus]
    double arbOverhead = 0.5;
    bool settleTiming = false;
    bool worstCaseSettle = false;

    // [run]
    int batches = 10;
    long batchSize = 8000;
    bool warmupSet = false;
    long warmup = 0;
    std::uint64_t seed = 0x5eedcafe;
    double confidence = 0.90;

    // Axes: verbatim tokens, so CSV row labels and metric prefixes are
    // stable however the spec was written. The row axis is the loads
    // unless [sweep] lists `cv`, `arb-overhead` or `batch-size` values
    // (rowTokens); then loadTokens holds at most the one load every
    // row runs at.
    std::string rowKey = "loads"; // loads | cv | arb-overhead | batch-size
    std::vector<std::string> loadTokens;
    std::vector<std::string> rowTokens;
    std::vector<std::string> protocolSpecs;

    /** The [table] sections, in file order; not part of format(). */
    std::vector<TableSpec> tables;

    /** The file text this spec was parsed from ("" for flag-built). */
    std::string rawText;

    /** @return The warm-up count, defaulting to the batch size. */
    std::uint64_t
    resolvedWarmup() const
    {
        return static_cast<std::uint64_t>(warmupSet ? warmup
                                                    : batchSize);
    }

    /**
     * @return Canonical scenario text; parsing it yields a spec that
     *         formats identically (round-trip property).
     */
    std::string format() const;

    /**
     * The row axis the grid sweeps: rowTokens for a cv, arb-overhead or
     * batch-size axis, else loadTokens. Without a load axis
     * (hasLoadAxis(): trace replay, or the worst-case family) it is the
     * single placeholder token "-", so the grid still enumerates one
     * cell per protocol and row labels stay well-formed.
     */
    const std::vector<std::string> &rowAxis() const;

    /** @return The row axis in labels: "load" or the [sweep] key. */
    std::string rowName() const;

    /** @return Cell `index`'s row label, e.g. "load=2" or "cv=0.25". */
    std::string cellLabel(std::size_t index) const;

    /** @return True when the selected source has a load axis. */
    bool sourceTakesLoads() const;

    /**
     * @return True when the cells take a load: the source has a load
     *         axis and the family is not worst-case (Table 4.5 fixes
     *         its own rates).
     */
    bool hasLoadAxis() const;

    /**
     * Number of grid cells this spec expands to: one per row x
     * protocol pair, in row-emission order (rows outer, protocols
     * inner). This is the canonical cell enumeration every consumer —
     * the in-process sweep, the shard planner, the worker processes,
     * and the merge stage — must agree on; a cell's global index is
     * its identity in checkpoint manifests.
     *
     * @return rowAxis().size() * protocolSpecs.size().
     */
    std::size_t cellCount() const;

    /** @return The row-axis token of grid cell `index` (rows outer). */
    const std::string &cellLoadToken(std::size_t index) const;

    /** @return The protocol spec of grid cell `index`. */
    const std::string &cellProtocolSpec(std::size_t index) const;

    /**
     * Expand one grid cell into a full ScenarioConfig. This is the one
     * code path that turns declarative inputs into runner configs —
     * for files and flags alike.
     *
     * @param load_token A token of the row axis: a load (ignored, and
     *        may be "", when family is worst-case), or the cv,
     *        arb-overhead or batch-size value of a row that runs at the
     *        one load.
     * @return The scenario configuration for that row.
     */
    ScenarioConfig configForLoad(const std::string &load_token) const;
};

/**
 * Parse scenario-file text.
 *
 * @param text The file contents.
 * @param out Receives the spec on success.
 * @param error Receives "line N: message" naming the offending token
 *        (with a did-you-mean hint for unknown sections/keys).
 * @retval false The text did not validate.
 */
bool parseScenarioSpec(const std::string &text, ScenarioSpec &out,
                       std::string &error);

/**
 * Load a scenario file for a tool: unreadable files exit 1, parse
 * errors exit 2 — both with `program: path: ...` on stderr.
 */
ScenarioSpec scenarioSpecOrExit(const std::string &program,
                                const std::string &path);

/**
 * Declare the scenario flags busarb_sim and busarb_report share:
 * --scenario, --worst-case, and one flag per [workload], [bus] and
 * [run] key they take, named as the key.
 */
void addScenarioFlags(ArgParser &parser);

/**
 * Build the spec a tool's flags describe. The tool's scenario flags
 * are the file keys it declares as flags (plus --worst-case, which
 * picks the family), and each sets its key through the key's file
 * check; a bad value exits 2 as `program: --flag ...`. Defaults count
 * as given, except a load default on a spec without a load axis and a
 * factor of 0, which is off. The spec then gets a file's checks across
 * keys.
 *
 * When the tool's --scenario or --grid flag names a file, the spec is
 * that file's (scenarioSpecOrExit) and any scenario flag given as well
 * exits 2: the file is the single source of truth for the run.
 */
ScenarioSpec scenarioSpecFromFlags(const std::string &program,
                                   const ArgParser &parser);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_SCENARIO_SPEC_HH
