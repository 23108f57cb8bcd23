/**
 * @file
 * Shared sweep-cell assembly: the one code path that turns (spec,
 * tuning, cell index) into a runnable GridJob.
 *
 * Three consumers must build bit-identical cells for the sharded
 * orchestration contract to hold: the in-process sweep in
 * busarb_sweep, the shard coordinator (which only needs the cell
 * count and validation), and every `busarb_sweep --worker-shard`
 * process. Any fork between them would break the byte-identity of
 * merged artifacts, so all of them call buildSweepGrid /
 * sweepCellJob here. busarb_sim and busarb_report build their one or
 * two cells the same way.
 *
 * SweepTuning carries the per-cell knobs that are not part of the
 * ScenarioSpec: the observer sinks (obs/observer_config.hh).
 * observerKey() (experiment/observer_flags.hh) renders them as stable
 * text; the shard fingerprint hashes it alongside the canonical
 * scenario text so a resumed sweep cannot silently change what its
 * cells would record.
 */

#ifndef BUSARB_EXPERIMENT_SWEEP_CELLS_HH
#define BUSARB_EXPERIMENT_SWEEP_CELLS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "obs/observer_config.hh"

namespace busarb {

/** Per-cell knobs shared by every sweep cell: the observer sinks. */
using SweepTuning = ObserverConfig;

/**
 * Expand one grid cell into its ScenarioConfig.
 *
 * @param spec The scenario spec (loads and protocols populated).
 * @param tuning Per-cell knobs.
 * @param program Tool name for exit-2 diagnostics.
 * @param cell Global cell index, < spec.cellCount().
 * @return The fully configured scenario for that cell.
 */
ScenarioConfig sweepCellConfig(const ScenarioSpec &spec,
                               const SweepTuning &tuning,
                               const std::string &program,
                               std::size_t cell);

/**
 * Build one runnable grid cell (config + protocol factory + spec
 * annotation). Malformed load tokens or protocol specs exit 2 naming
 * the token, per the CLI convention.
 */
GridJob sweepCellJob(const ScenarioSpec &spec, const SweepTuning &tuning,
                     const std::string &program, std::size_t cell);

/**
 * Build every cell of the grid, in row-emission order. Also serves as
 * up-front validation: any bad token exits 2 before any cell runs.
 */
std::vector<GridJob> buildSweepGrid(const ScenarioSpec &spec,
                                    const SweepTuning &tuning,
                                    const std::string &program);

} // namespace busarb

#endif // BUSARB_EXPERIMENT_SWEEP_CELLS_HH
