#include "experiment/report.hh"

#include <ostream>
#include <sstream>

#include "experiment/table.hh"
#include "obs/export_format.hh"

namespace busarb {

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
    table.addRow({"throughput (bus utilization)",
                  formatEstimate(result.throughput())});
    table.addRow({"mean wait W", formatEstimate(result.meanWait())});
    table.addRow({"stddev of W", formatEstimate(result.waitStddev())});
    table.addRow(
        {"t[N]/t[1] fairness ratio",
         formatEstimate(result.throughputRatio(result.numAgents, 1))});
    table.addRow({"retry-pass fraction",
                  formatEstimate(result.retryPassFraction(), 4)});
    // Host wall-clock, only known for grid-run scenarios.
    if (result.elapsedMs > 0.0)
        table.addRow({"sim wall time",
                      formatFixed(result.elapsedMs, 0) + " ms"});
    table.print(os);
}

} // namespace busarb
