/**
 * @file
 * The fleet dispatcher: turns one sweep into a fleet of
 * `busarb_sweep --worker-shard` processes with crash recovery.
 *
 * The coordinator plans shards (shard_plan.hh), materializes one task
 * file per shard plus a grid.spec identity file in the shard
 * directory, then keeps up to `fleet` workers running until every
 * shard's manifest is complete. Scheduling is dynamic: shards are
 * handed to free slots in index order, so requesting more shards than
 * fleet slots yields work-stealing-style rebalancing — a slot that
 * finishes early simply takes the next pending shard, and a slow host
 * never strands more than one shard's tail.
 *
 * Crash recovery distinguishes two failure classes by exit status:
 *
 *  - A worker that dies on a signal (SIGKILL drill, OOM) or exits 1 is
 *    re-dispatched against the same manifest, which already holds its
 *    completed cells; each shard has a bounded retry budget, after
 *    which the sweep gives up with exit 1.
 *  - A worker that exits 2 found a spec-level problem (corrupt
 *    manifest, fingerprint mismatch, bad cell spec). Retrying cannot
 *    help, so the fleet is torn down and the sweep exits 2
 *    immediately.
 *
 * As each worker exits 0, its shard's results are decoded with
 * merge.hh while the rest of the fleet runs; once every shard is in,
 * they are handed back exactly as runScenarioGrid would have produced
 * them. A merge failure tears the fleet down before the sweep exits.
 */

#ifndef BUSARB_DIST_DISPATCHER_HH
#define BUSARB_DIST_DISPATCHER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"

namespace busarb {

/** Coordinator-side options of one sharded sweep. */
struct FleetOptions
{
    /** Tool name for diagnostics. */
    std::string program = "busarb_sweep";

    /** Fallback worker executable when /proc/self/exe is unreadable. */
    std::string exePath;

    /** Shard directory (task files + checkpoint manifests). */
    std::string shardDir;

    /** Requested shard count; clamped to the cell count. */
    std::size_t shards = 1;

    /** Max concurrent workers; 0 = min(shards, hardware threads). */
    std::size_t fleet = 0;

    /** Crash retries per shard before the sweep gives up. */
    int retries = 2;

    /** --jobs passed to every worker (1 = cell-at-a-time durability). */
    int workerJobs = 1;

    /** Continue over existing checkpoints instead of refusing. */
    bool resume = false;

    /** Live aggregate fleet progress/ETA line on stderr. */
    bool progress = false;
};

/**
 * Run the sweep as a worker fleet and return the full grid's results
 * in cell order — the same vector an in-process runScenarioGrid would
 * return, recovered from the shard manifests.
 *
 * Failures follow the CLI conventions and exit the process directly:
 * 1 for I/O trouble or an exhausted retry budget, 2 for spec-level
 * errors (fingerprint mismatch, corrupt checkpoints, refusing to
 * overwrite a prior sweep's checkpoints without --resume).
 *
 * @param spec The scenario spec (validated, non-empty axes).
 * @param tuning Per-cell tuning shared by every worker.
 * @param opts Fleet options.
 * @return One result per grid cell, in cell order.
 */
std::vector<ScenarioResult> runShardedSweep(const ScenarioSpec &spec,
                                            const SweepTuning &tuning,
                                            const FleetOptions &opts);

} // namespace busarb

#endif // BUSARB_DIST_DISPATCHER_HH
