/**
 * @file
 * Per-shard merge tests: collectShard puts a shard's checkpointed
 * results at their global cell indices, and reports a missing
 * manifest, missing cells and an undecodable record by status, naming
 * the manifest (and the cell) in its diagnostic.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "dist/manifest.hh"
#include "dist/merge.hh"
#include "dist/result_codec.hh"
#include "dist/shard_plan.hh"
#include "support/temp_path.hh"

namespace busarb {
namespace {

/** A decodable result that names its cell. */
ScenarioResult
cellResult(std::size_t cell)
{
    ScenarioResult r;
    r.protocolName = "cell " + std::to_string(cell);
    r.binaryTrace = {static_cast<std::uint8_t>(cell)};
    return r;
}

class MergeTest : public ::testing::Test
{
  protected:
    void SetUp() override { ::mkdir(dir_.c_str(), 0755); }

    void
    TearDown() override
    {
        std::remove(manifest().c_str());
        ::rmdir(dir_.c_str());
    }

    std::string
    manifest() const
    {
        return shardManifestPath(dir_, shard_.index);
    }

    /** Checkpoint `records` as cells begin, begin + 1, ... */
    void
    checkpoint(const std::vector<std::vector<std::uint8_t>> &records)
    {
        ManifestWriter writer;
        std::string error;
        const ManifestHeader header{kFingerprint, shard_.index,
                                    shard_.begin, shard_.end};
        ASSERT_TRUE(writer.open(manifest(), header, 0, error)) << error;
        for (std::size_t i = 0; i < records.size(); ++i)
            ASSERT_TRUE(
                writer.appendCell(shard_.begin + i, records[i], error))
                << error;
    }

    static constexpr std::uint64_t kFingerprint = 0xfeedfacecafebeefULL;
    const std::string dir_ = testTempPath("shards");
    /** Shard 1 of a grid, cells [3, 5). */
    const ShardRange shard_{1, 3, 5};
};

TEST_F(MergeTest, PlacesCellsAtTheirGlobalIndex)
{
    checkpoint({encodeScenarioResult(cellResult(3)),
                encodeScenarioResult(cellResult(4))});
    std::vector<ScenarioResult> out(6);
    out[0] = cellResult(0);
    std::string error;
    ASSERT_EQ(collectShard(dir_, shard_, kFingerprint, out, error),
              MergeStatus::kOk)
        << error;
    ASSERT_EQ(out.size(), 6u);
    for (const std::size_t cell : {3, 4})
        EXPECT_EQ(encodeScenarioResult(out[cell]),
                  encodeScenarioResult(cellResult(cell)))
            << cell;
    // Cells outside the shard are left as they were.
    EXPECT_EQ(out[0].protocolName, "cell 0");
    EXPECT_TRUE(out[2].protocolName.empty());
    EXPECT_TRUE(out[5].protocolName.empty());

    std::vector<ScenarioResult> grown;
    ASSERT_EQ(collectShard(dir_, shard_, kFingerprint, grown, error),
              MergeStatus::kOk)
        << error;
    ASSERT_EQ(grown.size(), shard_.end);
    EXPECT_EQ(grown[4].protocolName, "cell 4");
}

TEST_F(MergeTest, MissingManifestOrCellsIsIncomplete)
{
    std::vector<ScenarioResult> out;
    std::string error;
    EXPECT_EQ(collectShard(dir_, shard_, kFingerprint, out, error),
              MergeStatus::kIncomplete);
    EXPECT_NE(error.find(manifest() + ": manifest missing"),
              std::string::npos)
        << error;

    checkpoint({encodeScenarioResult(cellResult(3))});
    EXPECT_EQ(collectShard(dir_, shard_, kFingerprint, out, error),
              MergeStatus::kIncomplete);
    EXPECT_NE(error.find("only 1 of 2 cells"), std::string::npos)
        << error;
}

TEST_F(MergeTest, CorruptManifestOrRecordIsCorrupt)
{
    // appendCell checksums whatever it is given, so this record passes
    // every manifest check and only decode can refuse it.
    checkpoint({encodeScenarioResult(cellResult(3)), {0x01, 0x02, 0x03}});
    std::vector<ScenarioResult> out;
    std::string error;
    EXPECT_EQ(collectShard(dir_, shard_, kFingerprint, out, error),
              MergeStatus::kCorrupt);
    EXPECT_NE(error.find(manifest() + ": cell 4: "), std::string::npos)
        << error;

    EXPECT_EQ(collectShard(dir_, shard_, kFingerprint ^ 1, out, error),
              MergeStatus::kCorrupt);
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

} // namespace
} // namespace busarb
