#include "dist/merge.hh"

#include <fstream>

#include "dist/manifest.hh"
#include "dist/result_codec.hh"

namespace busarb {

MergeStatus
collectShard(const std::string &dir, const ShardRange &shard,
             std::uint64_t fingerprint, std::vector<ScenarioResult> &out,
             std::string &error)
{
    if (out.size() < shard.end)
        out.resize(shard.end);
    const std::string path = shardManifestPath(dir, shard.index);
    const ManifestHeader expected{fingerprint, shard.index, shard.begin,
                                  shard.end};
    ManifestContents contents;
    switch (readManifest(path, expected, contents, error)) {
    case ManifestReadStatus::kOk:
        break;
    case ManifestReadStatus::kMissing:
        error = path + ": manifest missing";
        return MergeStatus::kIncomplete;
    case ManifestReadStatus::kIoError:
        return MergeStatus::kIoError;
    case ManifestReadStatus::kCorrupt:
        return MergeStatus::kCorrupt;
    }
    if (contents.cells.size() != shard.size()) {
        error = path + ": only " + std::to_string(contents.cells.size()) +
                " of " + std::to_string(shard.size()) +
                " cells are checkpointed";
        return MergeStatus::kIncomplete;
    }
    for (const auto &[cell, record] : contents.cells) {
        std::string decode_error;
        if (!decodeScenarioResult(record.data(), record.size(), out[cell],
                                  decode_error)) {
            error = path + ": cell " + std::to_string(cell) + ": " +
                    decode_error;
            return MergeStatus::kCorrupt;
        }
    }
    error.clear();
    return MergeStatus::kOk;
}

std::size_t
countManifestCells(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open())
        return 0;
    std::size_t newlines = 0;
    char buffer[65536];
    while (in.read(buffer, sizeof buffer) || in.gcount() > 0) {
        const std::streamsize got = in.gcount();
        for (std::streamsize i = 0; i < got; ++i)
            if (buffer[i] == '\n')
                ++newlines;
        if (got < static_cast<std::streamsize>(sizeof buffer))
            break;
    }
    // Line 1 is the header; anything else is one completed cell.
    return newlines > 0 ? newlines - 1 : 0;
}

} // namespace busarb
