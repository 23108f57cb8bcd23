/**
 * @file
 * Versioned binary codec for ScenarioResult checkpoint records.
 *
 * A sharded sweep must reassemble merged artifacts byte-identically
 * to a single-process run, so a worker's per-cell checkpoint has to
 * capture *everything* the coordinator's emission path reads — batch
 * series, metrics registry, binary trace, snapshot JSONL, health
 * report — with bit-exact doubles (serialized as IEEE-754 bit
 * patterns, never through decimal text). The coordinator deserializes
 * records back into real ScenarioResult values and runs the exact
 * same output code a non-sharded sweep runs, so byte-identity holds
 * by construction.
 *
 * The format is host-endian: manifests are per-host scratch state
 * (like build artifacts), not portable interchange files. The version
 * field exists so a stale manifest from an older build is rejected
 * with exit 2 instead of being misread.
 */

#ifndef BUSARB_DIST_RESULT_CODEC_HH
#define BUSARB_DIST_RESULT_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "experiment/runner.hh"

namespace busarb {

/**
 * Codec version stamped into every record. v2 added the workload spec
 * string and the WorkloadStats block (open-loop observables).
 */
inline constexpr std::uint32_t kResultCodecVersion = 2;

/**
 * Serialize a ScenarioResult into a self-contained record.
 *
 * The self-profile (ScenarioResult::profile) is deliberately not
 * carried: it is host-timing diagnostics with no deterministic
 * artifact behind it, and busarb_sweep has no per-cell profile
 * output.
 *
 * @param result The result to serialize.
 * @return The record bytes.
 */
std::vector<std::uint8_t>
encodeScenarioResult(const ScenarioResult &result);

/**
 * Deserialize a record produced by encodeScenarioResult. Records are
 * outside input: every count and size is bounded before use, and only
 * bytes that encodeScenarioResult would write for the result decode.
 *
 * @param data Record bytes.
 * @param size Record length.
 * @param out Receives the result on success (fully overwritten).
 * @param error Receives a diagnostic on failure.
 * @retval false Malformed, truncated, version-mismatched or
 *         non-canonical record.
 */
bool decodeScenarioResult(const std::uint8_t *data, std::size_t size,
                          ScenarioResult &out, std::string &error);

} // namespace busarb

#endif // BUSARB_DIST_RESULT_CODEC_HH
