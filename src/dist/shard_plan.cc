#include "dist/shard_plan.hh"

#include "sim/logging.hh"

namespace busarb {

namespace {

/** Zero-padded shard index, at least four digits wide. */
std::string
shardName(std::size_t index)
{
    std::string digits = std::to_string(index);
    if (digits.size() < 4)
        digits.insert(0, 4 - digits.size(), '0');
    return digits;
}

} // namespace

std::vector<ShardRange>
planShards(std::size_t cells, std::size_t shards)
{
    BUSARB_ASSERT(cells >= 1, "cannot plan an empty grid");
    BUSARB_ASSERT(shards >= 1, "need at least one shard");
    if (shards > cells)
        shards = cells;
    std::vector<ShardRange> plan;
    plan.reserve(shards);
    const std::size_t base = cells / shards;
    const std::size_t extra = cells % shards;
    std::size_t begin = 0;
    for (std::size_t i = 0; i < shards; ++i) {
        const std::size_t size = base + (i < extra ? 1 : 0);
        plan.push_back({i, begin, begin + size});
        begin += size;
    }
    BUSARB_ASSERT(begin == cells, "shard plan does not cover the grid");
    return plan;
}

std::uint64_t
sweepFingerprint(const std::string &scenario_text,
                 const std::string &tuning_key)
{
    // FNV-1a over "scenario \0 tuning"; the separator keeps
    // (a+b, c) and (a, b+c) from colliding.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    const auto mix = [&hash](const std::string &text) {
        for (const char c : text) {
            hash ^= static_cast<unsigned char>(c);
            hash *= 0x100000001b3ULL;
        }
        hash ^= 0xff;
        hash *= 0x100000001b3ULL;
    };
    mix(scenario_text);
    mix(tuning_key);
    return hash;
}

std::string
fingerprintHex(std::uint64_t fingerprint)
{
    static const char *const kDigits = "0123456789abcdef";
    std::string text(16, '0');
    for (int i = 15; i >= 0; --i) {
        text[static_cast<std::size_t>(i)] =
            kDigits[fingerprint & 0xf];
        fingerprint >>= 4;
    }
    return text;
}

bool
parseFingerprintHex(std::string_view text, std::uint64_t &out)
{
    if (text.size() != 16)
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        int digit = 0;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return false;
        value = (value << 4) | static_cast<std::uint64_t>(digit);
    }
    out = value;
    return true;
}

std::string
gridSpecPath(const std::string &dir)
{
    return dir + "/grid.spec";
}

std::string
shardFilePath(const std::string &dir, std::size_t index)
{
    return dir + "/shard-" + shardName(index) + ".shard";
}

std::string
shardManifestPath(const std::string &dir, std::size_t index)
{
    return dir + "/shard-" + shardName(index) + ".manifest.jsonl";
}

} // namespace busarb
