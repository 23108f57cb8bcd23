#include "experiment/sweep_cells.hh"

#include <cstdlib>
#include <iostream>

#include "experiment/cli.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/workload_registry.hh"

namespace busarb {

ScenarioConfig
sweepCellConfig(const ScenarioSpec &spec, const SweepTuning &tuning,
                const std::string &program, std::size_t cell)
{
    const std::string &token = spec.cellLoadToken(cell);
    // Specs without a load axis sweep the placeholder token "-",
    // which is not a number and carries no load to validate.
    if (spec.rowKey != "loads" || spec.hasLoadAxis())
        parseDoubleTokenOrExit(program, spec.rowKey, token);
    ScenarioConfig config = spec.configForLoad(token);
    const std::string workload_error = validateWorkloadRun(config);
    if (!workload_error.empty()) {
        std::cerr << program << ": " << workload_error << "\n";
        std::exit(2);
    }
    config.observe = tuning;
    return config;
}

GridJob
sweepCellJob(const ScenarioSpec &spec, const SweepTuning &tuning,
             const std::string &program, std::size_t cell)
{
    const std::string &proto = spec.cellProtocolSpec(cell);
    return {sweepCellConfig(spec, tuning, program, cell),
            protocolFactoryOrExit(program, proto), proto};
}

std::vector<GridJob>
buildSweepGrid(const ScenarioSpec &spec, const SweepTuning &tuning,
               const std::string &program)
{
    std::vector<GridJob> grid;
    grid.reserve(spec.cellCount());
    for (std::size_t cell = 0; cell < spec.cellCount(); ++cell)
        grid.push_back(sweepCellJob(spec, tuning, program, cell));
    return grid;
}

} // namespace busarb
