#include "experiment/run_report.hh"

#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/table.hh"
#include "obs/export_format.hh"
#include "obs/latency.hh"
#include "sim/logging.hh"

namespace busarb {

namespace {

/**
 * Structured document sink: the content pass emits headings, prose,
 * tables, and code blocks; each format renders them its own way.
 */
class ReportSink
{
  public:
    virtual ~ReportSink() = default;
    virtual void begin(const std::string &title) = 0;
    virtual void heading(const std::string &text) = 0;
    virtual void paragraph(const std::string &text) = 0;
    /** A highlighted one-line banner (the verdict). */
    virtual void banner(const std::string &label,
                        const std::string &text, bool ok) = 0;
    virtual void table(const std::vector<std::string> &headers,
                       const std::vector<std::vector<std::string>>
                           &rows) = 0;
    virtual void codeBlock(const std::string &language,
                           const std::string &text) = 0;
    virtual void end() = 0;
};

std::string
escapeMarkdown(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == '|')
            out += "\\|";
        else
            out += c;
    }
    return out;
}

class MarkdownSink : public ReportSink
{
  public:
    explicit MarkdownSink(std::ostream &os) : os_(os) {}

    void
    begin(const std::string &title) override
    {
        os_ << "# " << title << "\n";
    }

    void
    heading(const std::string &text) override
    {
        os_ << "\n## " << text << "\n";
    }

    void
    paragraph(const std::string &text) override
    {
        os_ << "\n" << text << "\n";
    }

    void
    banner(const std::string &label, const std::string &text,
           bool ok) override
    {
        os_ << "\n> **" << label << ":** " << text
            << (ok ? "" : " ⚠") << "\n";
    }

    void
    table(const std::vector<std::string> &headers,
          const std::vector<std::vector<std::string>> &rows) override
    {
        os_ << "\n|";
        for (const auto &h : headers)
            os_ << " " << escapeMarkdown(h) << " |";
        os_ << "\n|";
        for (std::size_t i = 0; i < headers.size(); ++i)
            os_ << " --- |";
        os_ << "\n";
        for (const auto &row : rows) {
            os_ << "|";
            for (const auto &cell : row)
                os_ << " " << escapeMarkdown(cell) << " |";
            os_ << "\n";
        }
    }

    void
    codeBlock(const std::string &language,
              const std::string &text) override
    {
        os_ << "\n```" << language << "\n" << text;
        if (text.empty() || text.back() != '\n')
            os_ << "\n";
        os_ << "```\n";
    }

    void end() override {}

  private:
    std::ostream &os_;
};

std::string
escapeHtml(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '&':
            out += "&amp;";
            break;
          case '<':
            out += "&lt;";
            break;
          case '>':
            out += "&gt;";
            break;
          case '"':
            out += "&quot;";
            break;
          default:
            out += c;
        }
    }
    return out;
}

class HtmlSink : public ReportSink
{
  public:
    explicit HtmlSink(std::ostream &os) : os_(os) {}

    void
    begin(const std::string &title) override
    {
        os_ << "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
               "<meta charset=\"utf-8\">\n<title>"
            << escapeHtml(title)
            << "</title>\n<style>\n"
               "body { font-family: sans-serif; margin: 2em auto; "
               "max-width: 64em; padding: 0 1em; }\n"
               "table { border-collapse: collapse; margin: 0.5em 0; }\n"
               "th, td { border: 1px solid #999; padding: 0.25em "
               "0.6em; text-align: right; }\n"
               "th:first-child, td:first-child { text-align: left; }\n"
               "pre { background: #f4f4f4; padding: 0.8em; overflow-x: "
               "auto; }\n"
               ".banner { padding: 0.6em 1em; margin: 1em 0; "
               "font-weight: bold; }\n"
               ".banner.ok { background: #e2f2e2; }\n"
               ".banner.bad { background: #f6e0e0; }\n"
               "</style>\n</head>\n<body>\n<h1>"
            << escapeHtml(title) << "</h1>\n";
    }

    void
    heading(const std::string &text) override
    {
        os_ << "<h2>" << escapeHtml(text) << "</h2>\n";
    }

    void
    paragraph(const std::string &text) override
    {
        os_ << "<p>" << escapeHtml(text) << "</p>\n";
    }

    void
    banner(const std::string &label, const std::string &text,
           bool ok) override
    {
        os_ << "<div class=\"banner " << (ok ? "ok" : "bad") << "\">"
            << escapeHtml(label) << ": " << escapeHtml(text)
            << "</div>\n";
    }

    void
    table(const std::vector<std::string> &headers,
          const std::vector<std::vector<std::string>> &rows) override
    {
        os_ << "<table>\n<tr>";
        for (const auto &h : headers)
            os_ << "<th>" << escapeHtml(h) << "</th>";
        os_ << "</tr>\n";
        for (const auto &row : rows) {
            os_ << "<tr>";
            for (const auto &cell : row)
                os_ << "<td>" << escapeHtml(cell) << "</td>";
            os_ << "</tr>\n";
        }
        os_ << "</table>\n";
    }

    void
    codeBlock(const std::string &language,
              const std::string &text) override
    {
        // Escaped text in a <pre> keeps the page self-contained with
        // no script-breakout concerns.
        os_ << "<pre data-lang=\"" << escapeHtml(language) << "\">"
            << escapeHtml(text) << "</pre>\n";
    }

    void
    end() override
    {
        os_ << "</body>\n</html>\n";
    }

  private:
    std::ostream &os_;
};

/** The report's and the summary's estimate rows: label, "v ± hw". */
std::vector<std::vector<std::string>>
estimateRows(const ScenarioResult &result)
{
    std::vector<std::vector<std::string>> rows;
    for (const ResultEstimate &e : kResultEstimates)
        rows.push_back(
            {e.label, formatEstimate(e.compute(result), e.digits)});
    return rows;
}

/** The shared content pass. */
void
renderReport(ReportSink &sink, const ScenarioConfig &config,
             const ScenarioResult &result,
             const std::string &scenario_spec)
{
    sink.begin("busarb run report — " + result.protocolName);

    // Verdict up top: the reader should know whether to trust the
    // numbers before reading any of them.
    if (result.health.enabled) {
        std::ostringstream hs;
        result.health.print(hs);
        sink.banner("Health",
                    hs.str(),
                    result.health.verdict ==
                        ConvergenceVerdict::kConverged);
    } else {
        sink.banner("Health",
                    "monitoring disabled — rerun with --health for a "
                    "convergence verdict",
                    true);
    }

    sink.heading("Scenario");
    sink.paragraph(describeScenario(config) +
                   "; seed " + formatUint(config.seed) + ", " +
                   formatFixed(100.0 * config.confidence, 0) +
                   "% confidence intervals");

    if (!scenario_spec.empty()) {
        // The canonical spec makes the report replayable: save this
        // block to a file and rerun with --scenario.
        sink.heading("Scenario spec");
        sink.codeBlock("ini", scenario_spec);
    }

    sink.heading("Estimates");
    sink.table({"measure", "estimate"}, estimateRows(result));

    if (result.health.enabled) {
        sink.heading("Convergence");
        std::vector<std::vector<std::string>> rows;
        const auto &traj = result.health.waitRelHwTrajectory;
        for (std::size_t i = 0; i < traj.size(); ++i) {
            rows.push_back({formatUint(i + 1),
                            formatDouble(traj[i])});
        }
        sink.table({"batches", "W relative CI half-width"}, rows);
        sink.paragraph(
            "lag-1 autocorrelation of W batch means: " +
            formatDouble(result.health.waitLag1) +
            "; MSER truncation point: " +
            formatUint(result.health.waitMserCut) +
            " (0 means no warm-up transient detected); utilization "
            "relative half-width: " +
            formatDouble(result.health.utilRelHalfWidth));
    }

    sink.heading("Batches");
    {
        std::vector<std::vector<std::string>> rows;
        for (std::size_t i = 0; i < result.batches.size(); ++i) {
            const BatchStats &b = result.batches[i];
            rows.push_back({formatUint(i + 1),
                            formatFixed(b.duration, 2),
                            formatFixed(b.utilization, 4),
                            formatFixed(b.waitMean, 4),
                            formatFixed(b.waitStddev, 4),
                            formatUint(b.passes),
                            formatUint(b.retryPasses)});
        }
        sink.table({"batch", "duration", "util", "W mean", "W stddev",
                    "passes", "retries"},
                   rows);
    }

    if (!result.binaryTrace.empty()) {
        sink.heading("Latency breakdown");
        const std::vector<TraceChunk> chunks =
            readTraceChunks(result.binaryTrace);
        std::vector<std::vector<std::string>> rows;
        for (const TraceChunk &chunk : chunks) {
            const LatencySummary s =
                summarizeLatencies(computeRequestLatencies(chunk));
            rows.push_back(
                {chunk.protocol, formatUint(s.wait.count()),
                 formatFixed(s.queue.mean(), 3),
                 formatFixed(s.exposedArb.mean(), 3),
                 formatFixed(s.service.mean(), 3),
                 formatFixed(s.wait.mean(), 3),
                 formatFixed(s.waitQuantile(0.50), 2),
                 formatFixed(s.waitQuantile(0.95), 2),
                 formatFixed(s.waitQuantile(0.99), 2),
                 formatFixed(s.wait.count() > 0 ? s.wait.max() : 0.0,
                             3)});
        }
        sink.table({"protocol", "requests", "queue", "exp. arb",
                    "service", "W mean", "p50", "p95", "p99", "max"},
                   rows);
    }

    if (config.observe.auditsFairness()) {
        sink.heading("Fairness");
        // The registry has no const accessors; read from a copy.
        MetricsRegistry m = result.metrics;
        std::vector<std::vector<std::string>> rows;
        rows.push_back({"grants",
                        formatUint(m.counter("fairness.grants")
                                       .value())});
        rows.push_back(
            {"bound violations",
             formatUint(m.counter("fairness.bound_violations")
                            .value())});
        rows.push_back({"max bypasses",
                        formatFixed(
                            m.gauge("fairness.max_bypasses").max(),
                            0)});
        rows.push_back({"priority inversions",
                        formatUint(m.counter("fairness.inversions")
                                       .value())});
        rows.push_back(
            {"Jain index (completions)",
             formatFixed(m.gauge("fairness.jain_completions").mean(),
                         4)});
        rows.push_back(
            {"max starvation (units)",
             formatFixed(m.gauge("fairness.max_starvation_units").max(),
                         2)});
        sink.table({"measure", "value"}, rows);
    }

    if (!result.fairnessSnapshots.empty() ||
        !result.healthSnapshots.empty()) {
        sink.heading("Snapshots");
        sink.codeBlock("jsonl", result.fairnessSnapshots +
                                    result.healthSnapshots);
    }

    sink.heading("Metrics");
    {
        std::ostringstream json;
        result.metrics.writeJson(json);
        sink.codeBlock("json", json.str());
    }

    sink.end();
}

} // namespace

std::string
describeScenario(const ScenarioConfig &config)
{
    std::ostringstream os;
    os << config.numAgents << " agents, total offered load "
       << formatFixed(config.totalOfferedLoad(), 2);
    if (!config.agents.empty()) {
        // Report the CV when it is uniform across agents.
        const double cv = config.agents.front().cv;
        bool uniform = true;
        for (const auto &a : config.agents)
            uniform = uniform && a.cv == cv;
        if (uniform)
            os << " (cv " << formatFixed(cv, 2) << ")";
        const int r = config.agents.front().maxOutstanding;
        if (r > 1)
            os << ", up to " << r << " outstanding/agent";
    }
    os << "; transaction " << config.bus.transactionTime
       << ", arbitration ";
    if (config.bus.settleTiming) {
        os << "settle-timed ("
           << (config.bus.settleMode == BusParams::SettleMode::kWorstCase
                   ? "worst-case"
                   : "dynamic")
           << ", prop " << config.bus.propagationDelay << ")";
    } else {
        os << config.bus.arbitrationOverhead << " overlapped";
    }
    os << "; " << config.numBatches << " batches x " << config.batchSize;
    // Only non-default sources are named, so closed-loop banners (and
    // anything diffing them) look exactly as they did pre-seam.
    if (config.workloadSpec != "closed")
        os << "; source " << config.workloadSpec;
    return os.str();
}

void
printSummary(const ScenarioResult &result, std::ostream &os)
{
    TextTable table({"measure", "value"});
    table.addRow({"protocol", result.protocolName});
    if (result.workloadSpec != "closed")
        table.addRow({"workload source", result.workloadSpec});
    if (result.workload.openLoop) {
        table.addRow({"offered rate",
                      formatFixed(result.workload.offeredRate, 4)});
        table.addRow({"carried rate",
                      formatFixed(result.workload.carriedRate, 4)});
        table.addRow({"final backlog",
                      formatUint(result.workload.finalBacklog)});
        table.addRow({"saturated",
                      result.workload.saturated ? "yes" : "no"});
    }
    for (auto &row : estimateRows(result))
        table.addRow(std::move(row));
    // Host wall-clock, only known for grid-run scenarios.
    if (result.elapsedMs > 0.0)
        table.addRow({"sim wall time",
                      formatFixed(result.elapsedMs, 0) + " ms"});
    table.print(os);
}

void
writeRunReport(const ScenarioConfig &config,
               const ScenarioResult &result, RunReportFormat format,
               std::ostream &os, const std::string &scenario_spec)
{
    switch (format) {
      case RunReportFormat::kMarkdown: {
        MarkdownSink sink(os);
        renderReport(sink, config, result, scenario_spec);
        return;
      }
      case RunReportFormat::kHtml: {
        HtmlSink sink(os);
        renderReport(sink, config, result, scenario_spec);
        return;
      }
    }
    BUSARB_PANIC("unknown report format ", static_cast<int>(format));
}

} // namespace busarb
