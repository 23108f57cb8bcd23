/**
 * @file
 * Trace replay demo: compare protocols on an identical request stream.
 *
 * The paper's fairness results were independently confirmed by a trace
 * simulation study [EgGi87]. This example generates one synthetic
 * Poisson request trace (or loads one from a file) and replays the
 * exact same arrivals through several protocols, reporting per-trace
 * mean waits and per-agent service counts — apples-to-apples, with no
 * closed-loop feedback.
 *
 * Usage: trace_replay [trace-file]
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "experiment/protocol_registry.hh"
#include "experiment/table.hh"
#include "stats/welford.hh"
#include "workload/workload_source.hh"

namespace {

using namespace busarb;

/** Observer computing waits and per-agent counts. */
struct TraceMetrics : BusObserver
{
    RunningStats waits;
    std::vector<std::uint64_t> perAgent;

    explicit TraceMetrics(int n)
        : perAgent(static_cast<std::size_t>(n) + 1, 0)
    {
    }

    void onServiceStart(const Request &, Tick) override {}

    void
    onServiceEnd(const Request &req, Tick now) override
    {
        waits.add(ticksToUnits(now - req.issued));
        ++perAgent[static_cast<std::size_t>(req.agent)];
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const int n = 8;
    RequestTrace trace;
    if (argc > 1) {
        std::ifstream file(argv[1]);
        if (!file) {
            std::cerr << "cannot open trace file " << argv[1] << "\n";
            return 1;
        }
        std::string error;
        if (!RequestTrace::parse(file, trace, error)) {
            std::cerr << argv[1] << ": " << error << "\n";
            return 2;
        }
        std::cout << "loaded " << trace.size() << " requests from "
                  << argv[1] << "\n\n";
    } else {
        trace = RequestTrace::poisson(n, /*total_rate=*/0.85,
                                      /*length=*/40000.0, Rng(20260706));
        std::cout << "generated a Poisson trace: " << trace.size()
                  << " requests over 40000 units (rate 0.85)\n\n";
    }

    TextTable table({"protocol", "mean W", "sigma W", "max W",
                     "served(hi)/served(lo)"});
    for (const char *key : {"fixed", "aap1", "rr1", "fcfs2", "hybrid"}) {
        EventQueue queue;
        Bus bus(queue, ProtocolRegistry::builtin().fromSpec(key)(),
                std::max<int>(n, trace.maxAgent()), {});
        TraceMetrics metrics(bus.numAgents());
        bus.setObserver(&metrics);
        TraceWorkloadSource source(queue, bus, trace);
        source.start();
        queue.run();
        const double hi =
            static_cast<double>(metrics.perAgent[static_cast<std::size_t>(
                bus.numAgents())]);
        const double lo = static_cast<double>(metrics.perAgent[1]);
        table.addRow({
            bus.protocol().name(),
            formatFixed(metrics.waits.mean(), 2),
            formatFixed(metrics.waits.stddev(), 2),
            formatFixed(metrics.waits.max(), 1),
            lo > 0 ? formatFixed(hi / lo, 2) : "inf",
        });
    }
    table.print(std::cout);

    std::cout << "\nEvery protocol saw the identical arrival sequence. "
                 "With open-loop (trace)\narrivals the served counts are "
                 "equal by construction; the wait distribution\nand its "
                 "tail (max W) show the scheduling differences.\n";
    return 0;
}
