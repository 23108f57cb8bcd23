/**
 * @file
 * Per-shard checkpoint manifests: append-only JSONL, durable at cell
 * granularity.
 *
 * A worker writes one manifest per shard. Line 1 is the header —
 * manifest kind, format version, sweep fingerprint, and the shard's
 * cell range — and every subsequent line is one completed cell: the
 * global cell index plus the hex-encoded result_codec record and its
 * FNV-1a checksum. Each line is appended with a single write() and
 * fsync'd before the worker moves on, so a SIGKILL at any instant
 * loses at most the line being written.
 *
 * Crash tolerance is asymmetric by design:
 *
 *  - A torn FINAL line (no trailing newline) is the expected kill
 *    artifact; readers drop it silently and resume re-runs that cell.
 *  - Any COMPLETE line that fails to parse, fails its checksum, names
 *    a cell outside the shard's range, or conflicts with an earlier
 *    record for the same cell is corruption, not a crash — readers
 *    report it and the tools exit 2. (A byte-identical duplicate cell
 *    line is accepted: an orphaned worker racing its replacement can
 *    legitimately re-append the same record.)
 *  - A header whose version or fingerprint disagrees with the resuming
 *    sweep is also corruption: merging checkpoints from a different
 *    grid would silently fabricate results.
 */

#ifndef BUSARB_DIST_MANIFEST_HH
#define BUSARB_DIST_MANIFEST_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace busarb {

/** Manifest format version stamped into every header line. */
inline constexpr std::uint32_t kManifestVersion = 1;

/** Identity fields of a shard manifest's header line. */
struct ManifestHeader
{
    /** Sweep fingerprint (shard_plan.hh). */
    std::uint64_t fingerprint = 0;

    /** Shard index within the plan. */
    std::size_t shard = 0;

    /** First global cell index owned by the shard. */
    std::size_t begin = 0;

    /** One past the last global cell index owned by the shard. */
    std::size_t end = 0;
};

/** Outcome of readManifest. */
enum class ManifestReadStatus {
    kOk,      ///< manifest loaded (possibly with zero cells)
    kMissing, ///< no manifest file exists (a fresh shard)
    kIoError, ///< the file exists but could not be read
    kCorrupt, ///< structural damage; the caller should exit 2
};

/** Everything recovered from one shard manifest. */
struct ManifestContents
{
    /** The parsed header. */
    ManifestHeader header;

    /** Recovered cell records, keyed by global cell index. */
    std::map<std::size_t, std::vector<std::uint8_t>> cells;

    /**
     * Length of the valid prefix of the file in bytes. When the file
     * ends in a torn line this is less than the file size; a resuming
     * writer truncates to it before appending.
     */
    std::size_t validBytes = 0;

    /** True when a torn final line was dropped. */
    bool tornTail = false;
};

/**
 * Load a shard manifest, verifying it against the expected header.
 *
 * @param path Manifest file path.
 * @param expected Header the manifest must match (fingerprint, shard
 *        index, cell range).
 * @param out Receives the recovered contents on kOk.
 * @param error Receives a diagnostic on kIoError/kCorrupt.
 * @return Read status; see ManifestReadStatus.
 */
ManifestReadStatus readManifest(const std::string &path,
                                const ManifestHeader &expected,
                                ManifestContents &out,
                                std::string &error);

/**
 * Read only a manifest's header line, checking its shape and version
 * as readManifest does but nothing it would need an expected header
 * for. The coordinator uses it to see which cell ranges the
 * checkpoints in a shard directory were written for.
 *
 * @param path Manifest file path.
 * @param out Receives the header on kOk.
 * @param error Receives a diagnostic on kIoError/kCorrupt.
 * @retval kMissing No file, or no complete header line yet (a torn
 *         header is a fresh manifest).
 */
ManifestReadStatus readManifestHeader(const std::string &path,
                                      ManifestHeader &out,
                                      std::string &error);

/**
 * Append-only manifest writer with per-line durability.
 *
 * Not copyable; closes its descriptor on destruction.
 */
class ManifestWriter
{
  public:
    ManifestWriter() = default;
    ~ManifestWriter();

    ManifestWriter(const ManifestWriter &) = delete;
    ManifestWriter &operator=(const ManifestWriter &) = delete;

    /**
     * Open `path` for appending, creating it (plus its header line) if
     * absent. When resuming over an existing manifest, `valid_bytes`
     * must come from readManifest: the file is truncated to it first so
     * a torn tail can never glue onto the next record.
     *
     * @param path Manifest file path.
     * @param header Header to stamp into a newly created manifest.
     * @param valid_bytes Valid prefix length of an existing file; 0
     *        for a fresh manifest.
     * @param error Receives a diagnostic on failure.
     * @retval false The file could not be opened or truncated.
     */
    bool open(const std::string &path, const ManifestHeader &header,
              std::size_t valid_bytes, std::string &error);

    /**
     * Append one completed cell and fsync. The record is encoded,
     * checksummed, written with a single write(), and flushed to disk
     * before returning.
     *
     * @param cell Global cell index.
     * @param record result_codec bytes for the cell.
     * @param error Receives a diagnostic on failure.
     * @retval false The write or fsync failed.
     */
    bool appendCell(std::size_t cell,
                    const std::vector<std::uint8_t> &record,
                    std::string &error);

    /** Close the descriptor early (also done by the destructor). */
    void close();

    /** @return True while a descriptor is open. */
    bool isOpen() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
    std::string path_;
};

/** @return Lowercase hex encoding of `data`. */
std::string hexEncode(const std::vector<std::uint8_t> &data);

/**
 * Decode hexEncode output.
 *
 * @param text Candidate text; must be even-length lowercase hex.
 * @param out Receives the bytes; sized once, to text.size() / 2.
 * @retval false Malformed hex.
 */
bool hexDecode(std::string_view text, std::vector<std::uint8_t> &out);

/** @return FNV-1a 64 checksum of `data` (cell-line integrity check). */
std::uint64_t manifestChecksum(const std::vector<std::uint8_t> &data);

} // namespace busarb

#endif // BUSARB_DIST_MANIFEST_HH
