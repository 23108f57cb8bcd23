#include "experiment/scenario_spec.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>
#include <type_traits>

#include "experiment/cli.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"
#include "experiment/workload_registry.hh"
#include "obs/export_format.hh"
#include "sim/logging.hh"
#include "stats/student_t.hh"

namespace busarb {

namespace {

/**
 * Bounds that keep every duration a scenario implies inside the tick
 * clock (2^63 ticks of 1e-6 units, about 9.2e12 units), where
 * unitsToTicks() is defined. A per-agent load of kMinPerAgentLoad
 * (1e-6) is a mean think time of about 1e6 units; a cv of 100 puts the
 * hyperexponential's slow phase at about 1e4 times the mean, so even
 * its longest draws (about 37 slow-phase means) stay near 4e11 units; a
 * pass takes at most 1000 units.
 */
constexpr double kMaxCv = 100.0;
constexpr double kMaxArbOverhead = 1000.0;

std::string
trim(const std::string &s)
{
    const auto first = s.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return "";
    const auto last = s.find_last_not_of(" \t\r");
    return s.substr(first, last - first + 1);
}

std::vector<std::string>
splitWhitespace(const std::string &s)
{
    std::vector<std::string> tokens;
    std::istringstream is(s);
    std::string token;
    while (is >> token)
        tokens.push_back(token);
    return tokens;
}

/**
 * Parse a seed: decimal, or hex after "0x" (how seeds are usually
 * quoted), within the uint64 range. A leading zero on a decimal seed
 * is refused, since "0100" could be meant as octal.
 */
bool
parseSeed(const std::string &text, std::uint64_t &out)
{
    const bool hex = text.rfind("0x", 0) == 0;
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    if (!hex && text.size() > 1 && text[0] == '0')
        return false;
    std::uint64_t value = 0;
    const auto [end, ec] = std::from_chars(first, last, value, hex ? 16 : 10);
    if (first == last || end != last || ec != std::errc())
        return false;
    out = value;
    return true;
}

const std::vector<std::string> &
sectionNames()
{
    static const std::vector<std::string> names = {
        "workload", "bus", "run", "protocol", "sweep", "table"};
    return names;
}

const std::vector<std::string> &
keysOf(const std::string &section)
{
    static const std::vector<std::string> workload = {
        "family", "agents", "cv",
        "unequal-factor", "max-outstanding", "load",
        "source", "hot-agents", "hot-factor"};
    static const std::vector<std::string> bus = {
        "arb-overhead", "settle-timing", "worst-case-settle"};
    static const std::vector<std::string> run = {
        "batches", "batch-size", "warmup", "seed", "confidence"};
    static const std::vector<std::string> protocol = {"spec"};
    static const std::vector<std::string> sweep = {
        "loads", "cv", "arb-overhead", "batch-size", "protocols"};
    static const std::vector<std::string> table = {"title", "rows",
                                                   "column"};
    static const std::vector<std::string> none;
    if (section == "workload")
        return workload;
    if (section == "bus")
        return bus;
    if (section == "run")
        return run;
    if (section == "protocol")
        return protocol;
    if (section == "sweep")
        return sweep;
    if (section == "table")
        return table;
    return none;
}

/** @return The decimals `text` is written to: 2 for 0.25, 6 for 1e-6. */
int
writtenDecimals(const std::string &text)
{
    const auto exp = text.find_first_of("eE");
    const auto dot = text.substr(0, exp).find('.');
    long decimals = dot == std::string::npos
                        ? 0
                        : static_cast<long>(std::min(exp, text.size()) -
                                            dot - 1);
    if (exp != std::string::npos)
        decimals -= std::clamp(std::strtol(text.c_str() + exp + 1, nullptr,
                                           10),
                               -17L, 17L);
    return static_cast<int>(std::clamp(decimals, 0L, 17L));
}

/**
 * Expand one axis token ("2" or "lo:hi:step") into tokens. A range
 * value is lo + i * step, printed at the inputs' decimals, so
 * 0.7:1.2:0.1 reads 0.7 0.8 0.9 1 1.1 1.2.
 *
 * @param noun The axis in diagnostics: "load" or the [sweep] key.
 */
bool
expandAxisToken(const std::string &noun, const std::string &token,
                std::vector<std::string> &out, std::string &error)
{
    const auto colon = token.find(':');
    if (colon == std::string::npos) {
        double value = 0.0;
        if (!parseDouble(token, value)) {
            error = "bad " + noun + " '" + token + "'";
            return false;
        }
        out.push_back(token);
        return true;
    }
    const auto colon2 = token.find(':', colon + 1);
    const std::string parts[] = {
        token.substr(0, colon),
        token.substr(colon + 1, colon2 - colon - 1),
        colon2 == std::string::npos ? "" : token.substr(colon2 + 1)};
    double lo = 0.0, hi = 0.0, step = 0.0;
    if (colon2 == std::string::npos || !parseDouble(parts[0], lo) ||
        !parseDouble(parts[1], hi) || !parseDouble(parts[2], step)) {
        error = "bad " + noun + " range '" + token +
                "' (expected lo:hi:step)";
        return false;
    }
    if (step <= 0.0 || hi < lo) {
        error = "bad " + noun + " range '" + token +
                "' (need step > 0 and hi >= lo)";
        return false;
    }
    // The tolerance keeps hi itself in despite rounding in (hi-lo)/step.
    const double steps = std::floor((hi - lo) / step + 1e-9);
    if (!(steps < 10000.0)) {
        error = "bad " + noun + " range '" + token +
                "' (more than 10000 values)";
        return false;
    }
    int decimals = 0;
    for (const auto &part : parts)
        decimals = std::max(decimals, writtenDecimals(part));
    for (long i = 0; i <= static_cast<long>(steps); ++i) {
        std::string text =
            formatFixed(lo + static_cast<double>(i) * step, decimals);
        if (text.find('.') != std::string::npos) {
            text.erase(text.find_last_not_of('0') + 1);
            if (text.back() == '.')
                text.pop_back();
        }
        out.push_back(text == "-0" ? "0" : text);
    }
    return true;
}

/** Resolve a [table] column against the spec; "" or why it is bad. */
std::string
resolveColumn(const ScenarioSpec &spec, bool protocol_rows,
              TableSpec::Column &column)
{
    using Kind = TableSpec::Column::Kind;
    // A quantity is `name` or `name(args)`.
    const std::string &q = column.quantity;
    const auto open = q.find('(');
    const std::string name = q.substr(0, open);
    const bool call = open != std::string::npos && q.back() == ')';
    const std::string args =
        call ? q.substr(open + 1, q.size() - open - 2) : "";
    const auto comma = args.find(',');
    const auto &protocols = spec.protocolSpecs;
    const auto protocol_index = [&](const std::string &p) {
        return static_cast<int>(
            std::find(protocols.begin(), protocols.end(), p) -
            protocols.begin());
    };
    const int swept = static_cast<int>(protocols.size());
    long a = 0, b = 0;
    if (call && name == "ratio" && comma != std::string::npos &&
        parseLong(args.substr(0, comma), a) &&
        parseLong(args.substr(comma + 1), b)) {
        if (std::min(a, b) < 1 || std::max(a, b) > spec.agents)
            return q + " needs agents in 1.." + std::to_string(spec.agents);
        column.kind = Kind::kRatio;
        column.a = static_cast<int>(a);
        column.b = static_cast<int>(b);
    } else if (call && name == "cdf") {
        if (!parseDouble(args, column.t) ||
            !(column.t >= 0.0 && std::isfinite(column.t)))
            return q + " needs a finite t >= 0";
        column.kind = Kind::kCdf;
    } else if (call && (name == "overlap" || name == "overlap_residual" ||
                        name == "overlap_productivity")) {
        // A protocol spec may hold commas: split where both halves are
        // swept protocols, else at the first comma.
        auto split = comma;
        for (auto c = comma; c != std::string::npos;
             c = args.find(',', c + 1)) {
            if (protocol_index(args.substr(0, c)) < swept &&
                protocol_index(args.substr(c + 1)) < swept) {
                split = c;
                break;
            }
        }
        if (split == std::string::npos)
            return q + " needs two protocols, a and b";
        const std::string pair[] = {args.substr(0, split),
                                    args.substr(split + 1)};
        for (const std::string &p : pair)
            if (protocol_index(p) == swept)
                return q + ": '" + p + "' is not in [sweep] protocols";
        if (pair[0] == pair[1])
            return q + " needs two different protocols";
        column.a = protocol_index(pair[0]);
        column.b = protocol_index(pair[1]);
        column.kind = name == "overlap" ? Kind::kOverlap
                      : name == "overlap_residual"
                          ? Kind::kOverlapResidual
                          : Kind::kOverlapProductivity;
    } else if (q == "wait_lag1") {
        column.kind = Kind::kWaitLag1;
    } else if (q == "lines") {
        column.kind = Kind::kLines;
    } else if (q != "offered") {
        std::vector<std::string> names{
            "offered", "ratio(a,b)", "cdf(t)", "wait_lag1", "lines",
            "overlap(a,b)", "overlap_residual(a,b)",
            "overlap_productivity(a,b)"};
        for (const ResultEstimate &e : kResultEstimates) {
            names.push_back(e.key);
            if (q == e.key)
                column.estimate = &e;
        }
        if (column.estimate == nullptr)
            return "unknown quantity '" + q + "'" + didYouMeanHint(q, names);
        column.kind = Kind::kEstimate;
    }
    const auto &cells = protocol_rows ? spec.rowAxis() : spec.protocolSpecs;
    if (std::find(cells.begin(), cells.end(), column.at) == cells.end())
        return "'" + column.at + "' is not " +
               (protocol_rows ? "on the " + spec.rowKey + " axis"
                              : std::string("in [sweep] protocols"));
    return "";
}

/**
 * Where a key's value comes from: line `line` of a scenario file, or
 * (line 0) the tool flag of the key's name. A message names the key as
 * its source spells it: `key 'cv'` and a quoted value, or `--cv`.
 */
struct KeySource
{
    std::string key;
    int line = 0;

    std::string name() const
    {
        return line > 0 ? "key '" + key + "'" : "--" + key;
    }

    /** @return `<name> <what>, got <value>`. */
    std::string bad(const std::string &what, const std::string &value) const
    {
        return name() + " " + what + ", got " +
               (line > 0 ? "'" + value + "'" : value);
    }

    /** @return A message about a token; a flag's names the flag. */
    std::string token(const std::string &message) const
    {
        return line > 0 ? message : "--" + key + ": " + message;
    }
};

/**
 * Set one key of `section` from its value text: the key's type, range,
 * enum and registry checks. A file runs it once per line, a tool once
 * per scenario flag, so a key is checked the same way whichever sets
 * it.
 *
 * @return "" or why the value is bad.
 */
std::string
setScenarioKey(ScenarioSpec &spec, const std::string &section,
               const KeySource &source, const std::string &value)
{
    const std::string &key = source.key;
    if (value.empty())
        return source.name() + " needs a value";

    // Integer keys take the range of the field they set.
    const auto want_int = [&](long min_value, auto &slot,
                              const std::string &text) -> std::string {
        using Field = std::remove_reference_t<decltype(slot)>;
        const long max_value = std::numeric_limits<Field>::max();
        long parsed = 0;
        if (!parseLong(text, parsed))
            return source.bad("expects an integer", text);
        if (parsed < min_value || parsed > max_value)
            return source.bad(
                "must be " + (parsed < min_value
                                  ? ">= " + std::to_string(min_value)
                                  : "<= " + std::to_string(max_value)),
                text);
        slot = static_cast<Field>(parsed);
        return "";
    };
    // An axis that lists a value twice would run its cells twice under
    // one label.
    const auto want_distinct = [&](const std::vector<std::string> &axis) {
        for (std::size_t i = 1; i < axis.size(); ++i)
            if (std::find(axis.begin(), axis.begin() + i, axis[i]) !=
                axis.begin() + i)
                return source.bad("must not repeat a value", axis[i]);
        return std::string();
    };
    const auto want_double =
        [&](double min_value, bool exclusive, double &slot,
            double max_value =
                std::numeric_limits<double>::infinity()) -> std::string {
        double parsed = 0.0;
        if (!parseDouble(value, parsed) || !std::isfinite(parsed))
            return source.bad("expects a number", value);
        if (parsed < min_value || (exclusive && parsed == min_value))
            return source.bad(std::string("must be ") +
                                  (exclusive ? ">" : ">=") + " " +
                                  formatDouble(min_value),
                              value);
        if (parsed > max_value)
            return source.bad("must be <= " + formatDouble(max_value),
                              value);
        slot = parsed;
        return "";
    };
    const auto want_bool = [&](bool &slot) -> std::string {
        if (value != "true" && value != "false")
            return source.bad("expects true/false", value);
        slot = value == "true";
        return "";
    };

    std::string why;
    if (section == "table") {
        // column = header = quantity @ cell (a cell may hold '=').
        TableSpec &table = spec.tables.back();
        const auto eq = value.find('=');
        const auto at = value.find('@', eq);
        if (key == "title") {
            table.title = value;
        } else if (key == "rows") {
            if (value != "protocols")
                return source.bad("expects 'protocols' (rows run along "
                                  "the row axis by default)",
                                  value);
            table.protocolRows = true;
        } else if (at == std::string::npos) {
            return source.bad("expects 'header = quantity @ cell'", value);
        } else {
            table.columns.push_back({trim(value.substr(0, eq)),
                                     trim(value.substr(eq + 1, at - eq - 1)),
                                     trim(value.substr(at + 1)),
                                     source.line});
        }
    } else if (section == "sweep" && key != "loads" && key != "protocols") {
        // A cv or arb-overhead row axis takes the [workload] or [bus]
        // key's values, and a batch-size axis the [run] key's integers.
        if (!spec.rowTokens.empty() && spec.rowKey != key)
            return "[sweep] sweeps both '" + spec.rowKey + "' and '" + key +
                   "'; a grid has one row axis";
        spec.rowKey = key;
        for (const auto &token : splitWhitespace(value)) {
            const std::size_t first = spec.rowTokens.size();
            if (!expandAxisToken(key, token, spec.rowTokens, why))
                return source.token(why);
            for (std::size_t i = first; i < spec.rowTokens.size(); ++i) {
                const std::string &row = spec.rowTokens[i];
                double v = 0.0;
                long size = 0;
                parseDouble(row, v);
                const double max_value =
                    key == "cv" ? kMaxCv : kMaxArbOverhead;
                if (key == "batch-size")
                    why = want_int(1, size, row);
                else if (!(v >= 0.0 && std::isfinite(v)))
                    why = source.bad("must be finite and >= 0", row);
                else if (v > max_value)
                    why = source.bad("must be <= " +
                                         formatDouble(max_value),
                                     row);
                if (!why.empty())
                    return why;
            }
        }
        why = want_distinct(spec.rowTokens);
    } else if (key == "family") {
        if (value != "equal" && value != "unequal" && value != "worst-case")
            return source.bad("expects equal|unequal|worst-case", value) +
                   didYouMeanHint(value, {"equal", "unequal", "worst-case"});
        spec.family = value;
    } else if (key == "agents") {
        why = want_int(1, spec.agents, value);
    } else if (key == "cv") {
        why = want_double(0.0, false, spec.cv, kMaxCv);
    } else if (key == "unequal-factor") {
        why = want_double(0.0, true, spec.unequalFactor);
    } else if (key == "max-outstanding") {
        why = want_int(1, spec.maxOutstanding, value);
    } else if (key == "source") {
        WorkloadSpec parsed;
        if (!WorkloadRegistry::builtin().parseSpec(value, parsed, why))
            return source.token("bad workload source '" + value +
                                "': " + why);
        spec.source = value;
    } else if (key == "hot-agents") {
        why = want_int(0, spec.hotAgents, value);
    } else if (key == "hot-factor") {
        why = want_double(0.0, true, spec.hotFactor);
    } else if (key == "arb-overhead") {
        why = want_double(0.0, false, spec.arbOverhead, kMaxArbOverhead);
    } else if (key == "settle-timing") {
        why = want_bool(spec.settleTiming);
    } else if (key == "worst-case-settle") {
        why = want_bool(spec.worstCaseSettle);
    } else if (key == "batches") {
        why = want_int(1, spec.batches, value);
    } else if (key == "batch-size") {
        why = want_int(1, spec.batchSize, value);
    } else if (key == "warmup") {
        why = want_int(0, spec.warmup, value);
        spec.warmupSet = true;
    } else if (key == "seed") {
        long negative = 0;
        if (parseLong(value, negative) && negative < 0)
            return source.bad("must be >= 0", value);
        if (!parseSeed(value, spec.seed))
            return source.bad("expects an unsigned integer", value);
    } else if (key == "confidence") {
        double v = 0.0;
        if (!parseDouble(value, v))
            return source.bad("expects a number", value);
        if (v <= 0.0 || v >= 1.0)
            return source.bad("must be in (0, 1)", value);
        if (!supportedConfidence(v))
            return source.bad("must be 0.90, 0.95 or 0.99", value);
        spec.confidence = v;
    } else if (key == "load" || key == "loads") {
        for (const auto &token : splitWhitespace(value))
            if (!expandAxisToken("load", token, spec.loadTokens, why))
                return source.token(why);
        why = want_distinct(spec.loadTokens);
    } else if (key == "spec" || key == "protocols") {
        for (const auto &token : splitWhitespace(value)) {
            ProtocolSpec parsed;
            if (!ProtocolRegistry::builtin().parseSpec(token, parsed, why))
                return source.token("bad protocol spec '" + token +
                                    "': " + why);
            spec.protocolSpecs.push_back(token);
        }
        why = want_distinct(spec.protocolSpecs);
    } else {
        BUSARB_PANIC("unhandled scenario key '", key, "'");
    }
    if (why.empty() && spec.rowKey != "loads" && spec.loadTokens.size() > 1)
        why = "[sweep] sweeps both 'loads' and '" + spec.rowKey +
              "'; a grid has one row axis";
    return why;
}

/**
 * The checks across keys, which a file and a tool's flags both get once
 * every key is set: family and factor rules, axis rules, the per-agent
 * load range, and [table] resolution.
 *
 * @return "" or why the spec is bad; only [table] errors name a line.
 */
std::string
checkScenarioSpec(ScenarioSpec &spec)
{
    if (spec.family == "unequal" && spec.unequalFactor <= 0.0)
        return "family 'unequal' requires unequal-factor";
    if (spec.family != "unequal" && spec.unequalFactor > 0.0)
        return "unequal-factor requires family 'unequal'";
    if (spec.family == "worst-case" && !spec.loadTokens.empty())
        return "family 'worst-case' takes no loads (the Table 4.5 "
               "workload fixes its own rates)";
    if (spec.rowKey != "loads" && spec.hasLoadAxis() &&
        spec.loadTokens.empty())
        return "sweeping " + spec.rowKey + " needs the one load every row "
               "runs at ([workload] load)";
    if (!spec.sourceTakesLoads() && !spec.loadTokens.empty())
        return "workload source '" + spec.source +
               "' takes no loads (it fixes its own arrival schedule)";
    if (spec.hotAgents > 0) {
        if (spec.family != "equal")
            return "hot-agents requires family 'equal' (family "
                   "'unequal' already defines its own hot agent)";
        if (spec.hotFactor <= 0.0)
            return "hot-agents requires hot-factor";
        if (spec.hotAgents > spec.agents)
            return "hot-agents exceeds agents";
    } else if (spec.hotFactor > 0.0) {
        return "hot-factor requires hot-agents";
    }
    // The scenario builders assert what follows; checking it here makes
    // a bad file or flag exit 2 naming the key instead of aborting.
    if (spec.family == "worst-case" && spec.agents < 5)
        return "family 'worst-case' requires agents >= 5, got " +
               std::to_string(spec.agents);
    if (spec.family == "unequal" && spec.agents < 2)
        return "family 'unequal' requires agents >= 2, got " +
               std::to_string(spec.agents);
    for (const auto &token : spec.loadTokens) {
        double load = 0.0;
        parseDouble(token, load); // the setter validated it
        const double per_agent = load / spec.agents;
        const std::string over = "load " + token + " over " +
                                 std::to_string(spec.agents) + " agents is " +
                                 formatDouble(per_agent) + " per agent; ";
        if (!(per_agent > 0.0 && per_agent < 1.0))
            return over + "the per-agent load must be in (0, 1)";
        if (per_agent < kMinPerAgentLoad)
            return over + "the per-agent load must be >= " +
                   formatDouble(kMinPerAgentLoad);
        // A factor scales one agent's load (computed as configForLoad
        // does), which obeys the same range.
        const auto scaled = [&](const char *key, double factor,
                                double agent_load,
                                const char *agent) -> std::string {
            if (agent_load < 1.0 && agent_load >= kMinPerAgentLoad)
                return "";
            return std::string(key) + " " + formatDouble(factor) +
                   " at load " + token + " pushes " + agent +
                   "'s offered load to " +
                   (agent_load >= 1.0
                        ? std::string(">= 1")
                        : "< " + formatDouble(kMinPerAgentLoad));
        };
        std::string why;
        if (spec.family == "unequal")
            why = scaled("unequal-factor", spec.unequalFactor,
                         per_agent * spec.unequalFactor, "agent 1");
        if (why.empty() && spec.hotAgents > 0)
            why = scaled("hot-factor", spec.hotFactor,
                         spec.hotFactor * load / spec.agents, "a hot agent");
        if (!why.empty())
            return why;
    }
    // Tables last: their columns name protocols and axis values.
    for (TableSpec &table : spec.tables) {
        if (table.title.empty() || table.columns.empty())
            return "line " + std::to_string(table.line) +
                   ": [table] needs a 'title' and at least one 'column'";
        for (TableSpec::Column &column : table.columns) {
            const std::string why =
                resolveColumn(spec, table.protocolRows, column);
            if (!why.empty())
                return "line " + std::to_string(column.line) +
                       ": key 'column': " + why;
        }
    }
    return "";
}

} // namespace

std::string
ScenarioSpec::format() const
{
    std::ostringstream os;
    os << "[workload]\n";
    os << "family = " << family << "\n";
    os << "agents = " << agents << "\n";
    // A swept key leaves its section for [sweep].
    if (rowKey != "cv")
        os << "cv = " << formatDouble(cv) << "\n";
    if (family == "unequal")
        os << "unequal-factor = " << formatDouble(unequalFactor) << "\n";
    os << "max-outstanding = " << maxOutstanding << "\n";
    // Emitted only when set, so pre-seam scenarios format (and hash,
    // and annotate) byte-identically to before these keys existed.
    if (source != "closed")
        os << "source = " << source << "\n";
    if (hotAgents > 0) {
        os << "hot-agents = " << hotAgents << "\n";
        os << "hot-factor = " << formatDouble(hotFactor) << "\n";
    }
    os << "\n[bus]\n";
    if (rowKey != "arb-overhead")
        os << "arb-overhead = " << formatDouble(arbOverhead) << "\n";
    os << "settle-timing = " << (settleTiming ? "true" : "false") << "\n";
    os << "worst-case-settle = "
       << (worstCaseSettle ? "true" : "false") << "\n";
    os << "\n[run]\n";
    os << "batches = " << batches << "\n";
    // A batch-size row warms up for its own batch size unless warmup
    // is set.
    if (rowKey != "batch-size")
        os << "batch-size = " << batchSize << "\n";
    if (rowKey != "batch-size" || warmupSet)
        os << "warmup = " << formatUint(resolvedWarmup()) << "\n";
    os << "seed = " << formatUint(seed) << "\n";
    os << "confidence = " << formatDouble(confidence) << "\n";
    if (!loadTokens.empty() || !rowTokens.empty() ||
        !protocolSpecs.empty()) {
        os << "\n[sweep]\n";
        const auto list = [&](const std::string &key,
                              const std::vector<std::string> &tokens) {
            if (tokens.empty())
                return;
            os << key << " =";
            for (const auto &t : tokens)
                os << " " << t;
            os << "\n";
        };
        list("loads", loadTokens);
        list(rowKey, rowTokens);
        list("protocols", protocolSpecs);
    }
    return os.str();
}

bool
ScenarioSpec::sourceTakesLoads() const
{
    const WorkloadDescriptor *desc = workloadDescriptorFor(source);
    return desc == nullptr || desc->takesLoads;
}

bool
ScenarioSpec::hasLoadAxis() const
{
    return family != "worst-case" && sourceTakesLoads();
}

const std::vector<std::string> &
ScenarioSpec::rowAxis() const
{
    // The placeholder keeps the cell enumeration non-degenerate when
    // the workload fixes its own rates: one cell per protocol, with a
    // stable row label.
    static const std::vector<std::string> no_load_axis = {"-"};
    if (rowKey != "loads")
        return rowTokens;
    return hasLoadAxis() ? loadTokens : no_load_axis;
}

std::string
ScenarioSpec::rowName() const
{
    return rowKey == "loads" ? "load" : rowKey;
}

std::string
ScenarioSpec::cellLabel(std::size_t index) const
{
    return rowName() + "=" + cellLoadToken(index);
}

std::size_t
ScenarioSpec::cellCount() const
{
    return rowAxis().size() * protocolSpecs.size();
}

const std::string &
ScenarioSpec::cellLoadToken(std::size_t index) const
{
    BUSARB_ASSERT(index < cellCount(), "cell index ", index,
                  " out of range (", cellCount(), " cells)");
    return rowAxis()[index / protocolSpecs.size()];
}

const std::string &
ScenarioSpec::cellProtocolSpec(std::size_t index) const
{
    BUSARB_ASSERT(index < cellCount(), "cell index ", index,
                  " out of range (", cellCount(), " cells)");
    return protocolSpecs[index % protocolSpecs.size()];
}

ScenarioConfig
ScenarioSpec::configForLoad(const std::string &token) const
{
    // A cv, arb-overhead or batch-size row sets that key; every row
    // runs at the one load.
    double row_cv = cv;
    double overhead = arbOverhead;
    long batch = batchSize;
    std::string load_token = token;
    if (rowKey == "batch-size") {
        BUSARB_ASSERT(parseLong(token, batch), "bad batch-size token '",
                      token, "'");
    } else if (rowKey != "loads") {
        double value = 0.0;
        BUSARB_ASSERT(parseDouble(token, value), "bad ", rowKey,
                      " token '", token, "'");
        (rowKey == "cv" ? row_cv : overhead) = value;
    }
    if (rowKey != "loads")
        load_token = loadTokens.empty() ? "" : loadTokens.front();
    ScenarioConfig config;
    if (family == "worst-case") {
        config = worstCaseRrScenario(agents, row_cv);
    } else if (!sourceTakesLoads()) {
        // No load axis: the source (trace replay) fixes its own
        // arrivals and never samples think times, so the traits' load
        // is inert — any fixed value keeps the config deterministic.
        config = equalLoadScenario(agents, 0.5, row_cv);
    } else {
        double load = 0.0;
        BUSARB_ASSERT(parseDouble(load_token, load),
                      "bad load token '", load_token, "'");
        if (family == "unequal") {
            config =
                unequalLoadScenario(agents, load / agents,
                                    unequalFactor, row_cv);
        } else {
            config = equalLoadScenario(agents, load, row_cv);
        }
        if (hotAgents > 0) {
            const double hot_load = hotFactor * load / agents;
            for (int i = 0; i < hotAgents; ++i) {
                config.agents[static_cast<std::size_t>(i)]
                    .meanInterrequest = interrequestForLoad(hot_load);
            }
        }
    }
    config.workloadSpec = source;
    config.numBatches = batches;
    config.batchSize = static_cast<std::uint64_t>(batch);
    config.warmup = static_cast<std::uint64_t>(warmupSet ? warmup : batch);
    config.seed = seed;
    config.confidence = confidence;
    config.bus.arbitrationOverhead = overhead;
    config.bus.settleTiming = settleTiming || worstCaseSettle;
    if (worstCaseSettle)
        config.bus.settleMode = BusParams::SettleMode::kWorstCase;
    for (auto &traits : config.agents)
        traits.maxOutstanding = maxOutstanding;
    return config;
}

bool
parseScenarioSpec(const std::string &text, ScenarioSpec &out,
                  std::string &error)
{
    ScenarioSpec spec;
    spec.rawText = text;

    std::istringstream is(text);
    std::string raw_line;
    std::string section;
    std::set<std::string> seen; // scalar keys, qualified by section
    int line_no = 0;

    const auto fail = [&](const std::string &message) {
        error = "line " + std::to_string(line_no) + ": " + message;
        return false;
    };

    while (std::getline(is, raw_line)) {
        ++line_no;
        std::string line = trim(raw_line);
        if (line.empty() || line[0] == '#' || line[0] == ';')
            continue;

        if (line[0] == '[') {
            if (line.back() != ']')
                return fail("malformed section header '" + line + "'");
            section = trim(line.substr(1, line.size() - 2));
            bool known = false;
            for (const auto &name : sectionNames())
                known = known || name == section;
            if (!known) {
                return fail(
                    "unknown section '[" + section + "]'" +
                    didYouMeanHint(section, sectionNames()));
            }
            // Each [table] header starts a new table.
            if (section == "table") {
                spec.tables.emplace_back();
                spec.tables.back().line = line_no;
            }
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            return fail("expected 'key = value' or '[section]', got '" +
                        line + "'");
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (section.empty())
            return fail("key '" + key + "' outside any [section]");
        const auto &vocab = keysOf(section);
        bool known = false;
        for (const auto &name : vocab)
            known = known || name == key;
        if (!known) {
            return fail("unknown key '" + key + "' in [" + section +
                        "]" + didYouMeanHint(key, vocab));
        }

        // List keys accumulate; everything else is single-assignment
        // (per table in [table]).
        const bool list_key = section == "sweep" || key == "load" ||
                              key == "spec" || key == "column";
        const std::string where =
            section == "table" ? "table" + std::to_string(spec.tables.size())
                               : section;
        if (!list_key && !seen.insert(where + "." + key).second)
            return fail("duplicate key '" + key + "' in [" + section +
                        "]");
        const std::string why =
            setScenarioKey(spec, section, {key, line_no}, value);
        if (!why.empty())
            return fail(why);
        // A key swept in [sweep] is not also a scalar of its own
        // section; the later of the two lines is the error.
        for (const auto &scalar : sectionNames()) {
            if (spec.rowKey != "loads" &&
                seen.count(scalar + "." + spec.rowKey) != 0)
                return fail("key '" + spec.rowKey + "' is swept in "
                            "[sweep]; drop it from [" + scalar + "]");
        }
    }
    // Errors across keys name no line, but for a [table]'s.
    error = checkScenarioSpec(spec);
    if (!error.empty())
        return false;
    out = spec;
    return true;
}

ScenarioSpec
scenarioSpecOrExit(const std::string &program, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::cerr << program << ": cannot read " << path << "\n";
        std::exit(1);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    ScenarioSpec spec;
    std::string error;
    if (!parseScenarioSpec(buffer.str(), spec, error)) {
        std::cerr << program << ": " << path << ": " << error << "\n";
        std::exit(2);
    }
    return spec;
}

void
addScenarioFlags(ArgParser &parser)
{
    parser.addStringFlag("scenario", "",
                         "read the workload/bus/run description from "
                         "this scenario file (see docs/PROTOCOLS.md); "
                         "conflicts with the flags below");
    parser.addIntFlag("agents", 10, "number of agents (1..N)");
    parser.addDoubleFlag("load", 2.0, "total offered load");
    parser.addDoubleFlag("cv", 1.0,
                         "inter-request coefficient of variation");
    parser.addBoolFlag("worst-case", false,
                       "use the Table 4.5 just-miss workload instead of "
                       "equal loads");
    parser.addDoubleFlag("unequal-factor", 0.0,
                         "agent 1's load multiplier (Table 4.4); 0 "
                         "disables");
    parser.addIntFlag("max-outstanding", 1,
                      "outstanding requests per agent (FCFS r > 1)");
    parser.addStringFlag("source", "closed",
                         "workload-source spec (see --list-workloads): "
                         "closed, open:..., onoff:..., trace:...");
    parser.addIntFlag("hot-agents", 0,
                      "first K agents offer --hot-factor times the "
                      "per-agent base load (family equal); 0 disables");
    parser.addDoubleFlag("hot-factor", 0.0,
                         "hot agents' per-agent load multiplier");
    parser.addIntFlag("batches", 10, "measurement batches");
    parser.addIntFlag("batch-size", 8000, "completions per batch");
    parser.addIntFlag("warmup", 8000, "warm-up completions discarded");
    parser.addIntFlag("seed", 0x5eedcafe, "random seed");
    parser.addDoubleFlag("arb-overhead", 0.5,
                         "arbitration overhead, transaction times");
    parser.addBoolFlag("settle-timing", false,
                       "derive pass durations from the bit-level "
                       "contention model");
    parser.addBoolFlag("worst-case-settle", false,
                       "budget ceil(k/2) propagations per pass "
                       "(synchronous bus)");
}

ScenarioSpec
scenarioSpecFromFlags(const std::string &program, const ArgParser &parser)
{
    const auto usage = [&](const std::string &message) {
        if (message.empty())
            return;
        std::cerr << program << ": " << message << "\n";
        std::exit(2);
    };
    // The scenario flags: --worst-case, which picks the family, and the
    // file keys the tool declares as flags, each in the first section
    // that has the key. The load axis goes last, as whether its default
    // applies depends on the family and the source.
    std::vector<std::string> names;
    std::vector<std::pair<std::string, std::string>> flags; // section, key
    if (parser.declares("worst-case"))
        names.push_back("worst-case");
    for (const auto &section : sectionNames()) {
        for (const auto &key : keysOf(section)) {
            if (section == "table" || !parser.declares(key) ||
                std::count(names.begin(), names.end(), key) != 0)
                continue;
            names.push_back(key);
            flags.emplace_back(section, key);
        }
    }
    std::stable_partition(flags.begin(), flags.end(), [](const auto &flag) {
        return flag.second != "load" && flag.second != "loads";
    });

    const std::string file = parser.declares("grid") ? "grid" : "scenario";
    if (!parser.getString(file).empty()) {
        for (const auto &name : names)
            if (parser.wasSet(name))
                usage("--" + name + " conflicts with --" + file +
                      " (the file is the single source of truth)");
        return scenarioSpecOrExit(program, parser.getString(file));
    }

    ScenarioSpec spec;
    if (parser.declares("worst-case")) {
        const bool unequal = parser.getDouble("unequal-factor") > 0.0;
        usage(setScenarioKey(spec, "workload", {"family"},
                             parser.getBool("worst-case") ? "worst-case"
                             : unequal                    ? "unequal"
                                                          : "equal"));
    }
    for (const auto &[section, key] : flags) {
        const bool axis = key == "load" || key == "loads";
        if (axis && parser.wasSet(key) && !spec.sourceTakesLoads())
            usage("--" + key + " conflicts with --source " + spec.source +
                  " (the source fixes its own arrival schedule)");
        // A load default needs a load axis, and a factor of 0 is off.
        if ((axis && !parser.wasSet(key) && !spec.hasLoadAxis()) ||
            ((key == "unequal-factor" || key == "hot-factor") &&
             parser.getDouble(key) == 0.0))
            continue;
        // Values as parsed, so --seed 0100 is 100 and --load 2.0 is 2;
        // a [sweep] list is comma-separated on the command line.
        std::string value = parser.parsedText(key);
        if (section == "sweep")
            std::replace(value.begin(), value.end(), ',', ' ');
        usage(setScenarioKey(spec, section, {key}, trim(value)));
    }
    usage(checkScenarioSpec(spec));
    return spec;
}

} // namespace busarb
