/**
 * @file
 * ScenarioResult codec tests: the round trip must be bit-exact (the
 * sharded merge's byte-identity rests on it), and every malformed
 * record must fail decode with a diagnostic instead of crashing.
 */

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>

#include <gtest/gtest.h>

#include "dist/manifest.hh"
#include "dist/result_codec.hh"
#include "experiment/csv.hh"

namespace busarb {
namespace {

/** A result exercising every serialized field. */
ScenarioResult
richResult()
{
    ScenarioResult r;
    r.protocolName = "RR(1)";
    r.spec = "rr1:bits=3";
    r.numAgents = 4;
    r.confidence = 0.95;
    r.elapsedMs = 123.25;

    for (int i = 0; i < 3; ++i) {
        BatchStats b;
        b.duration = 100.5 + i;
        b.completions = {10, 20, 30, static_cast<std::uint64_t>(40 + i)};
        b.waitMean = 1.0 / 3.0 + i; // not representable exactly in text
        b.waitStddev = 0.1 * i;
        b.productive = {1.1, 2.2, 3.3, 4.4};
        b.cycle = {5.5, 6.6, 7.7, 8.8};
        b.waitSum = {0.25, 0.5, 0.75, 1.0};
        b.overlapSum = {0.0, 0.125, 0.25, 0.375};
        b.utilization = 0.875;
        b.passes = 1000 + static_cast<std::uint64_t>(i);
        b.retryPasses = 7;
        r.batches.push_back(b);
    }

    r.waitHistogram.add(0.1);
    r.waitHistogram.add(3.7);
    r.waitHistogram.add(1e9); // overflow

    r.binaryTrace = {0x00, 0xff, 0x42, 0x10, 0x00, 0x7f};

    r.metrics.counter("bus.passes").add(321);
    r.metrics.gauge("wait.mean").set(1.0 / 7.0);
    r.metrics.gauge("wait.mean").set(2.0);
    r.metrics.gauge("empty.gauge"); // zero samples: +/-inf sentinels
    r.metrics.histogram("wait.histogram", 0.25, 8).add(0.3);
    r.metrics.setAnnotation("protocol.spec", "rr1:bits=3");

    r.fairnessSnapshots = "{\"t\": 1}\n{\"t\": 2}\n";
    r.healthSnapshots = "{\"batch\": 1}\n";

    r.health.enabled = true;
    r.health.verdict = ConvergenceVerdict::kTransientContaminated;
    r.health.batches = 3;
    r.health.wait = {3.25, 0.0625};
    r.health.waitRelHalfWidth = 0.019230769230769232;
    r.health.waitLag1 = -0.125;
    r.health.waitMserCut = 2;
    r.health.waitRelHwTrajectory = {0.5, 0.25, 0.019230769230769232};
    r.health.utilRelHalfWidth = 0.01;
    r.health.utilLag1 = 0.0625;
    return r;
}

/**
 * What the sweep coordinator does with a decoded cell: its CSV row,
 * its health line, and a prefixed merge of its metrics.
 */
void
emitLikeTheCoordinator(const ScenarioResult &r)
{
    std::ostringstream os;
    writeSummaryCsvRow(r, "load=1", os);
    r.health.print(os);
    MetricsRegistry merged;
    merged.mergeFrom(r.metrics, "load=1.rr1.");
    merged.writeJson(os);
    merged.writeCsv(os);
}

// With one field walk, a reordered field moves encode and decode
// together, so only pinned bytes catch a layout change. The pins are
// FNV-1a 64 digests of the v2 records.
TEST(ResultCodec, RichRecordLayoutIsPinned)
{
    if constexpr (std::endian::native != std::endian::little)
        GTEST_SKIP() << "records are host-endian; pinned on little-endian";
    const auto bytes = encodeScenarioResult(richResult());
    EXPECT_EQ(bytes.size(), 1385u);
    EXPECT_EQ(manifestChecksum(bytes), 0xa057d50d48c952b7ull);
}

TEST(ResultCodec, DefaultRecordLayoutIsPinned)
{
    if constexpr (std::endian::native != std::endian::little)
        GTEST_SKIP() << "records are host-endian; pinned on little-endian";
    const auto bytes = encodeScenarioResult(ScenarioResult{});
    EXPECT_EQ(bytes.size(), 290u);
    EXPECT_EQ(manifestChecksum(bytes), 0x97d5636b792bfe2dull);
}

// Manifest checksums are unkeyed, so an edited record can reach
// decode. Every single-field edit must either fail decode or give a
// result the coordinator can emit and that re-encodes to the edit.
TEST(ResultCodec, MutatedRecordsFailOrSurviveEmission)
{
    const auto bytes = encodeScenarioResult(richResult());
    const std::uint64_t words[] = {~0ull, 1ull << 40, 1ull << 31, 0};
    std::size_t decoded_count = 0;
    for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
        std::vector<std::vector<std::uint8_t>> mutants;
        mutants.push_back(bytes);
        mutants.back()[offset] ^= 0xFF;
        if (offset + sizeof(std::uint64_t) <= bytes.size()) {
            for (const std::uint64_t word : words) {
                mutants.push_back(bytes);
                std::memcpy(mutants.back().data() + offset, &word,
                            sizeof word);
            }
        }
        for (const auto &mutant : mutants) {
            ScenarioResult decoded;
            std::string error;
            if (!decodeScenarioResult(mutant.data(), mutant.size(),
                                      decoded, error)) {
                EXPECT_FALSE(error.empty()) << "offset " << offset;
                continue;
            }
            ++decoded_count;
            emitLikeTheCoordinator(decoded);
            EXPECT_EQ(encodeScenarioResult(decoded), mutant)
                << "offset " << offset;
        }
    }
    // Edits to free-valued fields (doubles, counters, text) decode.
    EXPECT_GT(decoded_count, 0u);
}

TEST(ResultCodec, RejectsOversizedHistogramAndAgentMismatch)
{
    const ScenarioResult rich = richResult();
    const auto bytes = encodeScenarioResult(rich);
    ScenarioResult decoded;
    std::string error;

    // The waiting-time histogram's bin count follows its bin width.
    const double width = rich.waitHistogram.binWidth();
    const std::uint64_t bins = rich.waitHistogram.numBins();
    std::uint8_t header[16];
    std::memcpy(header, &width, 8);
    std::memcpy(header + 8, &bins, 8);
    const auto at = std::search(bytes.begin(), bytes.end(), header,
                                header + sizeof header);
    ASSERT_NE(at, bytes.end());
    auto huge = bytes;
    const std::uint64_t too_many = 1ull << 40;
    std::memcpy(huge.data() + (at - bytes.begin()) + 8, &too_many, 8);
    EXPECT_FALSE(
        decodeScenarioResult(huge.data(), huge.size(), decoded, error));
    EXPECT_NE(error.find("histogram"), std::string::npos) << error;

    // Per-agent series must hold exactly numAgents entries.
    for (const int agents : {0, 3, 5}) {
        ScenarioResult mismatched = rich;
        mismatched.numAgents = agents;
        const auto record = encodeScenarioResult(mismatched);
        EXPECT_FALSE(decodeScenarioResult(record.data(), record.size(),
                                          decoded, error))
            << agents;
        EXPECT_NE(error.find("batch"), std::string::npos) << error;
    }
}

// The per-agent histogram list is retired but keeps its place: its
// count is written as 0, and a record that lists any is refused.
TEST(ResultCodec, RejectsPerAgentHistograms)
{
    const auto bytes = encodeScenarioResult(ScenarioResult{});
    // The count follows the waiting-time histogram, whose five u64
    // fields (width, bins, sum, overflow, nonzero) end it when empty.
    const Histogram &h = ScenarioResult{}.waitHistogram;
    const double width = h.binWidth();
    const std::uint64_t bins = h.numBins();
    std::uint8_t header[16];
    std::memcpy(header, &width, 8);
    std::memcpy(header + 8, &bins, 8);
    const auto at = std::search(bytes.begin(), bytes.end(), header,
                                header + sizeof header);
    ASSERT_NE(at, bytes.end());
    const auto count_at = (at - bytes.begin()) + 40;
    std::uint64_t count = ~0ull;
    std::memcpy(&count, bytes.data() + count_at, 8);
    ASSERT_EQ(count, 0u);
    auto listed = bytes;
    count = 1;
    std::memcpy(listed.data() + count_at, &count, 8);
    ScenarioResult decoded;
    std::string error;
    EXPECT_FALSE(
        decodeScenarioResult(listed.data(), listed.size(), decoded, error));
    EXPECT_EQ(error, "bad per-agent histogram");
}

TEST(ResultCodec, RoundTripIsBitExact)
{
    const ScenarioResult original = richResult();
    const auto bytes = encodeScenarioResult(original);

    ScenarioResult decoded;
    std::string error;
    ASSERT_TRUE(decodeScenarioResult(bytes.data(), bytes.size(), decoded,
                                     error))
        << error;

    // Re-encoding the decoded value must reproduce the record
    // byte-for-byte: that single check covers every field bit-exactly.
    EXPECT_EQ(encodeScenarioResult(decoded), bytes);

    // Spot checks for readability of failures.
    EXPECT_EQ(decoded.protocolName, "RR(1)");
    EXPECT_EQ(decoded.spec, "rr1:bits=3");
    EXPECT_EQ(decoded.numAgents, 4);
    ASSERT_EQ(decoded.batches.size(), 3u);
    EXPECT_EQ(decoded.batches[1].waitMean, original.batches[1].waitMean);
    EXPECT_EQ(decoded.waitHistogram.count(), 3u);
    EXPECT_EQ(decoded.waitHistogram.overflow(), 1u);
    EXPECT_EQ(decoded.waitHistogram.sum(), original.waitHistogram.sum());
    EXPECT_EQ(decoded.binaryTrace, original.binaryTrace);
    EXPECT_EQ(decoded.metrics.counters().at("bus.passes").value(), 321u);
    EXPECT_EQ(decoded.metrics.gauges().at("wait.mean").sum(),
              original.metrics.gauges().at("wait.mean").sum());
    EXPECT_EQ(decoded.metrics.gauges().at("empty.gauge").count(), 0u);
    EXPECT_EQ(decoded.metrics.annotations().at("protocol.spec"),
              "rr1:bits=3");
    EXPECT_EQ(decoded.fairnessSnapshots, original.fairnessSnapshots);
    EXPECT_EQ(decoded.health.verdict,
              ConvergenceVerdict::kTransientContaminated);
    EXPECT_EQ(decoded.health.waitRelHwTrajectory,
              original.health.waitRelHwTrajectory);
}

TEST(ResultCodec, EmptyGaugeSurvivesMergeAfterDecode)
{
    // The +/-inf empty-gauge sentinels must not be corrupted by the
    // round trip: a later set() must still establish min and max.
    ScenarioResult r;
    r.metrics.gauge("g");
    const auto bytes = encodeScenarioResult(r);
    ScenarioResult decoded;
    std::string error;
    ASSERT_TRUE(decodeScenarioResult(bytes.data(), bytes.size(), decoded,
                                     error));
    decoded.metrics.gauge("g").set(5.0);
    EXPECT_EQ(decoded.metrics.gauges().at("g").min(), 5.0);
    EXPECT_EQ(decoded.metrics.gauges().at("g").max(), 5.0);
}

TEST(ResultCodec, DefaultResultRoundTrips)
{
    const ScenarioResult original;
    const auto bytes = encodeScenarioResult(original);
    ScenarioResult decoded;
    std::string error;
    ASSERT_TRUE(decodeScenarioResult(bytes.data(), bytes.size(), decoded,
                                     error))
        << error;
    EXPECT_EQ(encodeScenarioResult(decoded), bytes);
}

TEST(ResultCodec, RejectsEveryTruncation)
{
    const auto bytes = encodeScenarioResult(richResult());
    ScenarioResult decoded;
    std::string error;
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        EXPECT_FALSE(
            decodeScenarioResult(bytes.data(), len, decoded, error))
            << "decode accepted a record truncated to " << len
            << " of " << bytes.size() << " bytes";
    }
}

TEST(ResultCodec, RejectsBadMagicAndVersion)
{
    auto bytes = encodeScenarioResult(richResult());
    ScenarioResult decoded;
    std::string error;

    auto bad_magic = bytes;
    bad_magic[0] ^= 0x01;
    EXPECT_FALSE(decodeScenarioResult(bad_magic.data(), bad_magic.size(),
                                      decoded, error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    auto bad_version = bytes;
    bad_version[4] ^= 0x01;
    EXPECT_FALSE(decodeScenarioResult(bad_version.data(),
                                      bad_version.size(), decoded,
                                      error));
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(ResultCodec, RejectsTrailingBytes)
{
    auto bytes = encodeScenarioResult(richResult());
    bytes.push_back(0x00);
    ScenarioResult decoded;
    std::string error;
    EXPECT_FALSE(decodeScenarioResult(bytes.data(), bytes.size(),
                                      decoded, error));
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

} // namespace
} // namespace busarb
