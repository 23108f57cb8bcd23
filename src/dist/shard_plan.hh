/**
 * @file
 * Deterministic shard planning for sweep orchestration.
 *
 * A sharded sweep partitions the canonical cell enumeration of a
 * ScenarioSpec (loads outer, protocols inner — see
 * ScenarioSpec::cellCount) into contiguous, non-empty cell ranges.
 * The plan is a pure function of (cell count, shard count): any
 * coordinator, worker, or resume run that agrees on those two numbers
 * derives the identical plan, which is what lets checkpoint manifests
 * written by one fleet be picked up by another.
 *
 * The grid fingerprint binds a shard directory to the sweep it was
 * produced by: a 64-bit FNV-1a hash over the canonical scenario text
 * and the canonical tuning key (experiment/sweep_cells.hh). Every
 * manifest header carries it, and every reader rejects a mismatch
 * with exit 2 — resuming a checkpoint under a different grid would
 * otherwise silently merge unrelated results.
 */

#ifndef BUSARB_DIST_SHARD_PLAN_HH
#define BUSARB_DIST_SHARD_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace busarb {

/** One shard: the contiguous cell range [begin, end). */
struct ShardRange
{
    /** Shard index, 0-based. */
    std::size_t index = 0;

    /** First global cell index owned by this shard. */
    std::size_t begin = 0;

    /** One past the last global cell index owned by this shard. */
    std::size_t end = 0;

    /** @return Number of cells in the shard. */
    std::size_t size() const { return end - begin; }
};

/**
 * Partition `cells` into at most `shards` contiguous non-empty
 * ranges. Sizes are balanced: the first (cells % shards) ranges get
 * one extra cell. When shards > cells the plan degrades to one
 * single-cell shard per cell — never an empty shard.
 *
 * @param cells Total grid cells; must be >= 1.
 * @param shards Requested shard count; must be >= 1.
 * @return The plan, in shard-index order.
 */
std::vector<ShardRange> planShards(std::size_t cells,
                                   std::size_t shards);

/**
 * 64-bit FNV-1a fingerprint of a sweep's observable identity.
 *
 * @param scenario_text Canonical scenario text (ScenarioSpec::format).
 * @param tuning_key Canonical tuning key (observerKey).
 * @return The fingerprint.
 */
std::uint64_t sweepFingerprint(const std::string &scenario_text,
                               const std::string &tuning_key);

/** @return Fixed-width lowercase hex text of a fingerprint. */
std::string fingerprintHex(std::uint64_t fingerprint);

/**
 * Parse fingerprintHex output.
 *
 * @param text Candidate text.
 * @param out Receives the value on success.
 * @retval false Not a 16-digit lowercase hex string.
 */
bool parseFingerprintHex(std::string_view text, std::uint64_t &out);

/** @return Path of the canonical grid spec inside a shard directory. */
std::string gridSpecPath(const std::string &dir);

/** @return Path of shard `index`'s spec file inside `dir`. */
std::string shardFilePath(const std::string &dir, std::size_t index);

/** @return Path of shard `index`'s checkpoint manifest inside `dir`. */
std::string shardManifestPath(const std::string &dir,
                              std::size_t index);

} // namespace busarb

#endif // BUSARB_DIST_SHARD_PLAN_HH
