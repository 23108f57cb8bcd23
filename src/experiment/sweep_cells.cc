#include "experiment/sweep_cells.hh"

#include <cstdlib>
#include <iostream>

#include "experiment/cli.hh"
#include "experiment/observer_flags.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/workload_registry.hh"

namespace busarb {

std::string
SweepTuning::canonicalKey() const
{
    return observerKey(*this);
}

ScenarioConfig
sweepCellConfig(const ScenarioSpec &spec, const SweepTuning &tuning,
                const std::string &program, std::size_t cell)
{
    const std::string &token = spec.cellLoadToken(cell);
    // Sources without a load axis sweep the placeholder token "-",
    // which is not a number and carries no load to validate.
    if (spec.sourceTakesLoads())
        parseDoubleTokenOrExit(program, "loads", token);
    ScenarioConfig config = spec.configForLoad(token);
    const std::string workload_error = validateWorkloadRun(config);
    if (!workload_error.empty()) {
        std::cerr << program << ": " << workload_error << "\n";
        std::exit(2);
    }
    config.observe = static_cast<const ObserverConfig &>(tuning);
    config.eventQueuePolicy = tuning.queuePolicy;
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
