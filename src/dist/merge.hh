/**
 * @file
 * Deterministic reassembly of a sharded sweep's results.
 *
 * As each worker exits, the coordinator decodes its shard's
 * checkpointed records back into ScenarioResult values at their global
 * cell indices; once the last shard is in, the vector is exactly the
 * one runScenarioGrid would have returned in-process. All artifact
 * emission (summary CSV, merged metrics, concatenated traces,
 * snapshot JSONL) then runs the same code over the same values, which
 * is what makes the merged artifacts byte-identical to a
 * single-process run at any shard count.
 */

#ifndef BUSARB_DIST_MERGE_HH
#define BUSARB_DIST_MERGE_HH

#include <string>
#include <vector>

#include "dist/shard_plan.hh"
#include "experiment/runner.hh"

namespace busarb {

/** Outcome of collectShard. */
enum class MergeStatus {
    kOk,         ///< every cell of the shard recovered
    kIncomplete, ///< the manifest is missing cells (or missing entirely)
    kCorrupt,    ///< corrupt manifest or undecodable record; exit 2
    kIoError,    ///< a manifest could not be read; exit 1
};

/**
 * Recover one shard's results from its manifest in `dir`. The
 * dispatcher calls it as each worker exits 0, so the reads overlap
 * the workers that are still running.
 *
 * @param dir Shard directory.
 * @param shard The shard (shard_plan.hh) to collect.
 * @param fingerprint Sweep fingerprint the manifest must carry.
 * @param out The grid's results, grown to at least `shard.end`
 *        entries; on kOk entries [begin, end) hold the shard's cells.
 * @param error Receives a diagnostic on any other status.
 * @return Merge status.
 */
MergeStatus collectShard(const std::string &dir, const ShardRange &shard,
                         std::uint64_t fingerprint,
                         std::vector<ScenarioResult> &out,
                         std::string &error);

/**
 * Count the completed cells recorded in one shard manifest, cheaply
 * (newline count minus header; no record decoding). Used by the fleet
 * progress display, which polls while workers run — a torn tail simply
 * doesn't count yet.
 *
 * @param path Manifest file path.
 * @return Completed-cell count; 0 for a missing or empty manifest.
 */
std::size_t countManifestCells(const std::string &path);

} // namespace busarb

#endif // BUSARB_DIST_MERGE_HH
