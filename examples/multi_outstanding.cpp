/**
 * @file
 * Multiple-outstanding-requests demo (Section 3.2 extension).
 *
 * "One nice property of the FCFS algorithm is that it can easily be
 * modified to allow each agent to have more than one active request,
 * yet still serve all requests in FCFS order. If the maximum number of
 * outstanding requests from each agent is r, then only ceil(log2 r)
 * more bits are needed for the waiting time counters."
 *
 * This example gives every agent r request tokens (modeling, e.g., a
 * processor with r miss-status registers / prefetch slots) and shows
 * how throughput at a fixed think time scales with r until the bus
 * saturates, while FCFS order and fairness hold throughout.
 *
 * Usage: multi_outstanding [max_r]   (default 8)
 */

#include <cstdlib>
#include <iostream>
#include <memory>

#include "core/fcfs.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"
#include "workload/scenario.hh"

int
main(int argc, char **argv)
{
    using namespace busarb;

    const int max_r = (argc > 1) ? std::atoi(argv[1]) : 8;
    const int n = 8;

    std::cout << "FCFS with multiple outstanding requests per agent ("
              << n << " agents,\nper-token think time 9 units => load "
              << n << "r/10)\n\n";

    TextTable table({"r", "counter bits", "throughput", "mean W",
                     "t_N/t_1"});
    for (int r = 1; r <= max_r; r *= 2) {
        ScenarioConfig config;
        config.numAgents = n;
        AgentTraits traits;
        traits.meanInterrequest = 9.0;
        traits.cv = 1.0;
        traits.maxOutstanding = r;
        config.agents.assign(n, traits);
        config.numBatches = 8;
        config.batchSize = 4000;
        config.warmup = 4000;

        FcfsConfig fcfs;
        fcfs.strategy = FcfsStrategy::kIncrLine;
        fcfs.maxOutstandingHint = r;
        FcfsProtocol probe(fcfs);
        probe.reset(n);
        const int bits = probe.counterBits();

        const auto result = runScenario(config, [fcfs] {
            return std::make_unique<FcfsProtocol>(fcfs);
        });
        table.addRow({
            std::to_string(r),
            std::to_string(bits),
            formatEstimate(result.throughput()),
            formatEstimate(result.meanWait()),
            formatEstimate(result.throughputRatio(n, 1)),
        });
    }
    table.print(std::cout);

    std::cout << "\nEach doubling of r adds one counter bit and raises "
                 "the sustainable load\nuntil the bus saturates near "
                 "throughput 1.0; fairness stays intact.\n";
    return 0;
}
