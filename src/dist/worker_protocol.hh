/**
 * @file
 * The coordinator/worker contract: shard task files and the worker-side
 * run loop behind `busarb_sweep --worker-shard`.
 *
 * A shard task file is the complete, self-contained description of one
 * shard's work — sweep fingerprint, cell range, canonical tuning key
 * and the canonical scenario text. A worker needs nothing else: it
 * re-parses the scenario, re-derives the fingerprint, and
 * refuses (exit 2) if its derivation disagrees with the file, so a
 * coordinator and worker built from diverging sources can never
 * silently mix results.
 *
 * Format (line-oriented; the scenario section runs to EOF):
 *
 *     busarb-shard v2
 *     fingerprint <16 hex digits>
 *     shard <index>
 *     begin <cell>
 *     end <cell>
 *     tuning <observerKey() text, see observer_flags.hh>
 *     scenario
 *     <ScenarioSpec::format() text ...>
 *
 * Task files are derived state: the coordinator rewrites every one on
 * each run, so a new task file version never strands a shard directory
 * as long as neither grid.spec nor the fingerprint depends on it.
 *
 * The worker checkpoints into the shard's manifest (manifest.hh) next
 * to the task file, resuming from whatever the manifest already holds;
 * running a worker on a fully complete shard is a cheap no-op.
 */

#ifndef BUSARB_DIST_WORKER_PROTOCOL_HH
#define BUSARB_DIST_WORKER_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "experiment/scenario_spec.hh"
#include "experiment/sweep_cells.hh"

namespace busarb {

/** Shard task file format version. */
inline constexpr std::uint32_t kShardFileVersion = 2;

/** One worker's parsed task: everything a shard run needs. */
struct ShardTask
{
    /** Sweep fingerprint the file was written under. */
    std::uint64_t fingerprint = 0;

    /** Shard index within the plan. */
    std::size_t shard = 0;

    /** First global cell index owned by the shard. */
    std::size_t begin = 0;

    /** One past the last global cell index owned by the shard. */
    std::size_t end = 0;

    /** Parsed scenario spec. */
    ScenarioSpec spec;

    /** Parsed per-cell tuning. */
    SweepTuning tuning;
};

/**
 * Render a shard task file's text.
 *
 * @param fingerprint Sweep fingerprint (shard_plan.hh).
 * @param shard Shard index.
 * @param begin First cell of the shard.
 * @param end One past the last cell of the shard.
 * @param scenario_text Canonical scenario text (ScenarioSpec::format).
 * @param tuning Per-cell tuning; its observerKey is embedded.
 * @return The file text.
 */
std::string renderShardFile(std::uint64_t fingerprint, std::size_t shard,
                            std::size_t begin, std::size_t end,
                            const std::string &scenario_text,
                            const SweepTuning &tuning);

/**
 * Parse a shard task file.
 *
 * @param text The file contents.
 * @param out Receives the task on success.
 * @param error Receives a diagnostic on failure (malformed structure,
 *        version mismatch, bad scenario text, or a fingerprint that
 *        does not match the re-derived one).
 * @retval false The text did not validate.
 */
bool parseShardFile(const std::string &text, ShardTask &out,
                    std::string &error);

/**
 * Run one shard to completion: load the task file, recover the shard's
 * manifest, simulate every cell not already checkpointed, and append
 * each finished cell durably. This is the whole implementation of
 * `busarb_sweep --worker-shard`.
 *
 * @param program Tool name for diagnostics.
 * @param shard_path Path of the shard task file; the manifest lives in
 *        the same directory under the planner's naming scheme.
 * @param jobs Worker threads for this shard's cells (resolveJobCount
 *        semantics).
 * @return Process exit code: 0 done, 1 I/O error, 2 malformed task
 *         file or corrupt manifest.
 */
int runWorkerShard(const std::string &program,
                   const std::string &shard_path, int jobs);

} // namespace busarb

#endif // BUSARB_DIST_WORKER_PROTOCOL_HH
