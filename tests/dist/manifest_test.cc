/**
 * @file
 * Checkpoint manifest tests: the durable write/read round trip, the v1
 * line bytes, hex decoding of every byte value, the header-only read,
 * the torn-tail crash contract, and rejection of every corruption
 * class (bad checksum, length mismatch, version mismatch, fingerprint
 * mismatch, conflicting duplicates, out-of-range cells).
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "dist/manifest.hh"
#include "dist/shard_plan.hh"

namespace busarb {
namespace {

class ManifestTest : public ::testing::Test
{
  protected:
    std::string
    path() const
    {
        return ::testing::TempDir() + "manifest_test_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name() +
               ".jsonl";
    }

    void SetUp() override { std::remove(path().c_str()); }
    void TearDown() override { std::remove(path().c_str()); }

    std::string
    fileText() const
    {
        std::ifstream in(path(), std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    void
    writeText(const std::string &text) const
    {
        std::ofstream out(path(), std::ios::binary | std::ios::trunc);
        out << text;
    }

    const ManifestHeader header_{0x0123456789abcdefULL, 2, 10, 14};
};

std::vector<std::uint8_t>
record(std::uint8_t seed)
{
    std::vector<std::uint8_t> bytes;
    for (int i = 0; i < 40; ++i)
        bytes.push_back(static_cast<std::uint8_t>(seed + i));
    return bytes;
}

TEST_F(ManifestTest, HexRoundTrip)
{
    const auto bytes = record(7);
    std::vector<std::uint8_t> back;
    ASSERT_TRUE(hexDecode(hexEncode(bytes), back));
    EXPECT_EQ(back, bytes);

    std::vector<std::uint8_t> every;
    for (int value = 0; value < 256; ++value)
        every.push_back(static_cast<std::uint8_t>(value));
    ASSERT_TRUE(hexDecode(hexEncode(every), back));
    EXPECT_EQ(back, every);

    std::vector<std::uint8_t> out;
    EXPECT_FALSE(hexDecode("abc", out));  // odd length
    EXPECT_FALSE(hexDecode("zz", out));   // non-hex
    EXPECT_FALSE(hexDecode("AB", out));   // uppercase
    ASSERT_TRUE(hexDecode("", out));
    EXPECT_TRUE(out.empty());

    // Every byte value in the high and in the low digit position: only
    // 0-9a-f decode, and bytes >= 0x80 (negative as a signed char) are
    // rejected like any other non-digit.
    const std::string digits = "0123456789abcdef";
    for (int value = 0; value < 256; ++value) {
        const char c = static_cast<char>(value);
        const std::size_t digit = digits.find(c);
        const bool valid = digit != std::string::npos;
        EXPECT_EQ(hexDecode(std::string{c, '0'}, out), valid) << value;
        if (valid) {
            EXPECT_EQ(out, std::vector<std::uint8_t>{
                               static_cast<std::uint8_t>(digit << 4)});
        }
        EXPECT_EQ(hexDecode(std::string{'0', c}, out), valid) << value;
        if (valid) {
            EXPECT_EQ(out, std::vector<std::uint8_t>{
                               static_cast<std::uint8_t>(digit)});
        }
    }
}

// Manifest v1, byte for byte: the header and one cell line for a fixed
// record, written by ManifestWriter and read back from the literal.
TEST_F(ManifestTest, LineBytesArePinned)
{
    const std::vector<std::uint8_t> fixed{0x00, 0x0f, 0x10, 0x7f,
                                          0x80, 0xa5, 0xf0, 0xff};
    const std::string pinned =
        "{\"kind\":\"busarb-shard-manifest\",\"version\":1,"
        "\"fingerprint\":\"0123456789abcdef\",\"shard\":2,\"begin\":10,"
        "\"end\":14}\n"
        "{\"cell\":12,\"check\":\"d60d578544ecd0f7\",\"bytes\":8,"
        "\"data\":\"000f107f80a5f0ff\"}\n";

    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    ASSERT_TRUE(writer.appendCell(12, fixed, error)) << error;
    writer.close();
    EXPECT_EQ(fileText(), pinned);

    writeText(pinned);
    ManifestContents contents;
    ASSERT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kOk)
        << error;
    EXPECT_FALSE(contents.tornTail);
    EXPECT_EQ(contents.validBytes, pinned.size());
    ASSERT_EQ(contents.cells.size(), 1u);
    EXPECT_EQ(contents.cells.at(12), fixed);
}

TEST_F(ManifestTest, MissingFileReportsMissing)
{
    ManifestContents contents;
    std::string error;
    EXPECT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kMissing);
}

TEST_F(ManifestTest, WriteReadRoundTrip)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    ASSERT_TRUE(writer.appendCell(10, record(1), error)) << error;
    ASSERT_TRUE(writer.appendCell(12, record(2), error)) << error;
    writer.close();

    ManifestContents contents;
    ASSERT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kOk)
        << error;
    EXPECT_FALSE(contents.tornTail);
    EXPECT_EQ(contents.header.fingerprint, header_.fingerprint);
    ASSERT_EQ(contents.cells.size(), 2u);
    EXPECT_EQ(contents.cells.at(10), record(1));
    EXPECT_EQ(contents.cells.at(12), record(2));
    EXPECT_EQ(contents.validBytes, fileText().size());
}

TEST_F(ManifestTest, TornTailIsDroppedAndTruncatedOnResume)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    ASSERT_TRUE(writer.appendCell(10, record(1), error)) << error;
    writer.close();

    // Simulate a mid-write SIGKILL: a second cell line without its
    // trailing newline.
    const std::string intact = fileText();
    {
        std::ofstream out(path(),
                          std::ios::binary | std::ios::app);
        out << "{\"cell\":11,\"check\":\"0000";
    }

    ManifestContents contents;
    ASSERT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kOk)
        << error;
    EXPECT_TRUE(contents.tornTail);
    ASSERT_EQ(contents.cells.size(), 1u);
    EXPECT_EQ(contents.validBytes, intact.size());

    // Resuming truncates the torn tail before appending, so the file
    // ends up indistinguishable from a clean two-cell run.
    ASSERT_TRUE(
        writer.open(path(), header_, contents.validBytes, error))
        << error;
    ASSERT_TRUE(writer.appendCell(11, record(3), error)) << error;
    writer.close();
    ManifestContents after;
    ASSERT_EQ(readManifest(path(), header_, after, error),
              ManifestReadStatus::kOk)
        << error;
    EXPECT_FALSE(after.tornTail);
    ASSERT_EQ(after.cells.size(), 2u);
    EXPECT_EQ(after.cells.at(11), record(3));
}

TEST_F(ManifestTest, TornHeaderMeansFreshManifest)
{
    writeText("{\"kind\":\"busarb-shard-man"); // killed mid-header
    ManifestContents contents;
    std::string error;
    ASSERT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kOk)
        << error;
    EXPECT_TRUE(contents.tornTail);
    EXPECT_EQ(contents.validBytes, 0u);
    EXPECT_TRUE(contents.cells.empty());
}

TEST_F(ManifestTest, IdenticalDuplicateAcceptedConflictRejected)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    ASSERT_TRUE(writer.appendCell(10, record(1), error)) << error;
    ASSERT_TRUE(writer.appendCell(10, record(1), error)) << error;
    writer.close();

    ManifestContents contents;
    ASSERT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kOk)
        << error;
    EXPECT_EQ(contents.cells.size(), 1u);

    ASSERT_TRUE(
        writer.open(path(), header_, contents.validBytes, error));
    ASSERT_TRUE(writer.appendCell(10, record(9), error));
    writer.close();
    EXPECT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kCorrupt);
    EXPECT_NE(error.find("conflicting"), std::string::npos) << error;
}

TEST_F(ManifestTest, ChecksumFlipIsCorrupt)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    ASSERT_TRUE(writer.appendCell(10, record(1), error)) << error;
    writer.close();

    std::string text = fileText();
    const std::size_t data = text.find("\"data\":\"");
    ASSERT_NE(data, std::string::npos);
    // Flip one hex digit of the payload without touching the length.
    text[data + 8] = text[data + 8] == '0' ? '1' : '0';
    writeText(text);

    ManifestContents contents;
    EXPECT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kCorrupt);
    EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST_F(ManifestTest, VersionMismatchIsCorrupt)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    writer.close();

    std::string text = fileText();
    const std::size_t version = text.find("\"version\":1");
    ASSERT_NE(version, std::string::npos);
    text.replace(version, 11, "\"version\":9");
    writeText(text);

    ManifestContents contents;
    EXPECT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kCorrupt);
    EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST_F(ManifestTest, FingerprintMismatchIsCorrupt)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    writer.close();

    ManifestHeader other = header_;
    other.fingerprint ^= 1;
    ManifestContents contents;
    EXPECT_EQ(readManifest(path(), other, contents, error),
              ManifestReadStatus::kCorrupt);
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST_F(ManifestTest, ShardRangeMismatchIsCorrupt)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    writer.close();

    ManifestHeader other = header_;
    other.end = 15;
    ManifestContents contents;
    EXPECT_EQ(readManifest(path(), other, contents, error),
              ManifestReadStatus::kCorrupt);
    EXPECT_NE(error.find("range"), std::string::npos) << error;
}

TEST_F(ManifestTest, CellOutsideRangeIsCorrupt)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    ASSERT_TRUE(writer.appendCell(99, record(1), error)) << error;
    writer.close();

    ManifestContents contents;
    EXPECT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kCorrupt);
    EXPECT_NE(error.find("outside"), std::string::npos) << error;
}

TEST_F(ManifestTest, GarbageLineIsCorrupt)
{
    ManifestWriter writer;
    std::string error;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    writer.close();
    const std::string header = fileText();
    {
        std::ofstream out(path(), std::ios::binary | std::ios::app);
        out << "not json at all\n";
    }
    ManifestContents contents;
    EXPECT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kCorrupt);

    // A checksum-valid line whose "bytes" disagrees with its hex.
    ASSERT_TRUE(writer.open(path(), header_, header.size(), error))
        << error;
    ASSERT_TRUE(writer.appendCell(10, record(1), error)) << error;
    writer.close();
    std::string text = fileText();
    const std::size_t bytes = text.find("\"bytes\":40,");
    ASSERT_NE(bytes, std::string::npos);
    text.replace(bytes, 11, "\"bytes\":41,");
    writeText(text);
    EXPECT_EQ(readManifest(path(), header_, contents, error),
              ManifestReadStatus::kCorrupt);
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST_F(ManifestTest, HeaderOnlyRead)
{
    ManifestHeader read;
    std::string error;
    EXPECT_EQ(readManifestHeader(path(), read, error),
              ManifestReadStatus::kMissing);

    ManifestWriter writer;
    ASSERT_TRUE(writer.open(path(), header_, 0, error)) << error;
    ASSERT_TRUE(writer.appendCell(10, record(1), error)) << error;
    writer.close();
    ASSERT_EQ(readManifestHeader(path(), read, error),
              ManifestReadStatus::kOk)
        << error;
    EXPECT_EQ(read.fingerprint, header_.fingerprint);
    EXPECT_EQ(read.shard, header_.shard);
    EXPECT_EQ(read.begin, header_.begin);
    EXPECT_EQ(read.end, header_.end);

    writeText("{\"kind\":\"busarb-shard-man"); // torn: a fresh manifest
    EXPECT_EQ(readManifestHeader(path(), read, error),
              ManifestReadStatus::kMissing);
    writeText(std::string(300, 'x')); // too long to be a header
    EXPECT_EQ(readManifestHeader(path(), read, error),
              ManifestReadStatus::kCorrupt);
    writeText("{\"kind\":\"busarb-shard-manifest\",\"version\":9,"
              "\"fingerprint\":\"0123456789abcdef\",\"shard\":2,"
              "\"begin\":10,\"end\":14}\n");
    EXPECT_EQ(readManifestHeader(path(), read, error),
              ManifestReadStatus::kCorrupt);
    EXPECT_NE(error.find("version 9"), std::string::npos) << error;
}

} // namespace
} // namespace busarb
