/**
 * @file
 * The paper's cost axis: bus lines and nominal arbitration delay for
 * every protocol, under full and binary-patterned [John83] arbitration
 * lines. Quantifies Section 5's claim that the proposed protocols have
 * "a better combination of efficiency, cost, and fairness" — RR adds
 * one line over the assured-access protocols; FCFS doubles the
 * identity field but can claw the delay back by patterning its static
 * part (while RR cannot use patterned lines without a winner-broadcast
 * field).
 */

#include <iostream>

#include "core/cost_model.hh"
#include "experiment/table.hh"

int
main()
{
    using namespace busarb;

    std::cout << "Wiring cost and nominal arbitration delay per "
                 "protocol\n(arb + broadcast + control lines; delay in "
                 "end-to-end propagations)\n";

    for (int n : {10, 30, 64}) {
        std::cout << "\n=== " << n << " agents ===\n\n";
        TextTable table({"Protocol", "Full lines", "Full delay",
                         "Patterned lines", "Patterned delay"});
        const auto row = [&](const std::string &name, WiringCost full,
                             WiringCost patterned) {
            table.addRow({
                name,
                std::to_string(full.totalLines()),
                formatFixed(full.arbitrationPropagations, 1),
                std::to_string(patterned.totalLines()),
                formatFixed(patterned.arbitrationPropagations, 1),
            });
        };
        row("Fixed priority",
            fixedPriorityCost(n, LineEncoding::kFull),
            fixedPriorityCost(n, LineEncoding::kBinaryPatterned));
        row("AAP (either)",
            assuredAccessCost(n, LineEncoding::kFull),
            assuredAccessCost(n, LineEncoding::kBinaryPatterned));
        for (auto impl : {RrImplementation::kPriorityBit,
                          RrImplementation::kLowRequestLine,
                          RrImplementation::kNoExtraLine}) {
            RrConfig config;
            config.impl = impl;
            const char *label =
                impl == RrImplementation::kPriorityBit  ? "RR impl 1"
                : impl == RrImplementation::kLowRequestLine
                    ? "RR impl 2"
                    : "RR impl 3";
            row(label, roundRobinCost(n, config, LineEncoding::kFull),
                roundRobinCost(n, config,
                               LineEncoding::kBinaryPatterned));
        }
        for (auto strategy :
             {FcfsStrategy::kIncrementOnLose, FcfsStrategy::kIncrLine}) {
            FcfsConfig config;
            config.strategy = strategy;
            row(strategy == FcfsStrategy::kIncrementOnLose
                    ? "FCFS impl 1"
                    : "FCFS impl 2",
                fcfsCost(n, config, LineEncoding::kFull),
                fcfsCost(n, config, LineEncoding::kBinaryPatterned));
        }
        table.print(std::cout);
    }
    std::cout << "\nBinary-patterned lines help everyone except RR "
                 "(which must add a winner-\nbroadcast field) and fully "
                 "restore FCFS's delay to RR levels (footnote 3).\n";
    return 0;
}
