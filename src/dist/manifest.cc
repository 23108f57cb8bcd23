#include "dist/manifest.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "dist/shard_plan.hh"

namespace busarb {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

/** kHexValue entry of a byte that is not a lowercase hex digit. */
constexpr std::uint8_t kNotHex = 0xff;

/** The value of each byte as a lowercase hex digit, else kNotHex. */
constexpr std::array<std::uint8_t, 256> kHexValue = [] {
    std::array<std::uint8_t, 256> table{};
    table.fill(kNotHex);
    for (std::uint8_t digit = 0; digit < 16; ++digit)
        table[static_cast<unsigned char>(kHexDigits[digit])] = digit;
    return table;
}();

/** A header line is far shorter; a longer first line is malformed. */
constexpr std::size_t kMaxHeaderBytes = 256;

/** Write the 2 * `size` lowercase hex digits of `data` at `out`. */
void
writeHex(const std::uint8_t *data, std::size_t size, char *out)
{
    for (std::size_t i = 0; i < size; ++i) {
        out[2 * i] = kHexDigits[data[i] >> 4];
        out[2 * i + 1] = kHexDigits[data[i] & 0xf];
    }
}

/**
 * Strict field-by-field parser for the manifest's own JSONL output.
 * The writer emits one fixed shape per line, so the reader demands
 * exactly that shape — any deviation is corruption, which makes the
 * parser double as the integrity check for complete lines. Fields are
 * views into the line; nothing is copied.
 */
struct LineParser
{
    std::string_view line;
    std::size_t pos = 0;

    bool
    literal(std::string_view text)
    {
        if (line.compare(pos, text.size(), text) != 0)
            return false;
        pos += text.size();
        return true;
    }

    bool
    number(std::uint64_t &out)
    {
        if (pos >= line.size() || line[pos] < '0' || line[pos] > '9')
            return false;
        std::uint64_t value = 0;
        while (pos < line.size() && line[pos] >= '0' && line[pos] <= '9') {
            const std::uint64_t digit =
                static_cast<std::uint64_t>(line[pos] - '0');
            if (value > (UINT64_MAX - digit) / 10)
                return false;
            value = value * 10 + digit;
            ++pos;
        }
        out = value;
        return true;
    }

    /** Consume a quoted run of `n` characters into `out`. */
    bool
    fixedString(std::size_t n, std::string_view &out)
    {
        if (line.size() - pos < n)
            return false;
        out = std::string_view(line.data() + pos, n);
        pos += n;
        return true;
    }

    /** Consume characters up to (not including) the next '"'. */
    bool
    untilQuote(std::string_view &out)
    {
        const std::size_t quote = line.find('"', pos);
        if (quote == std::string_view::npos)
            return false;
        out = std::string_view(line.data() + pos, quote - pos);
        pos = quote;
        return true;
    }

    bool atEnd() const { return pos == line.size(); }
};

std::string
headerLine(const ManifestHeader &header)
{
    return "{\"kind\":\"busarb-shard-manifest\",\"version\":" +
           std::to_string(kManifestVersion) + ",\"fingerprint\":\"" +
           fingerprintHex(header.fingerprint) +
           "\",\"shard\":" + std::to_string(header.shard) +
           ",\"begin\":" + std::to_string(header.begin) +
           ",\"end\":" + std::to_string(header.end) + "}\n";
}

/**
 * Parse a header line and check its version.
 *
 * @param what Receives the reason on failure, without the path.
 */
bool
parseHeaderLine(std::string_view line, ManifestHeader &out,
                std::string &what)
{
    LineParser p{line};
    std::uint64_t version = 0;
    std::string_view fp;
    std::uint64_t shard = 0;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    if (!p.literal("{\"kind\":\"busarb-shard-manifest\",\"version\":") ||
        !p.number(version) || !p.literal(",\"fingerprint\":\"") ||
        !p.fixedString(16, fp) || !p.literal("\",\"shard\":") ||
        !p.number(shard) || !p.literal(",\"begin\":") ||
        !p.number(begin) || !p.literal(",\"end\":") || !p.number(end) ||
        !p.literal("}") || !p.atEnd() ||
        !parseFingerprintHex(fp, out.fingerprint)) {
        what = "line 1: malformed manifest header";
        return false;
    }
    if (version != kManifestVersion) {
        what = "manifest version " + std::to_string(version) +
               " does not match this build (expected " +
               std::to_string(kManifestVersion) + ")";
        return false;
    }
    out.shard = static_cast<std::size_t>(shard);
    out.begin = static_cast<std::size_t>(begin);
    out.end = static_cast<std::size_t>(end);
    return true;
}

bool
parseCellLine(std::string_view line, std::size_t &cell,
              std::vector<std::uint8_t> &record)
{
    LineParser p{line};
    std::uint64_t index = 0;
    std::string_view check;
    std::uint64_t bytes = 0;
    std::string_view hex;
    if (!p.literal("{\"cell\":") || !p.number(index) ||
        !p.literal(",\"check\":\"") || !p.fixedString(16, check) ||
        !p.literal("\",\"bytes\":") || !p.number(bytes) ||
        !p.literal(",\"data\":\"") || !p.untilQuote(hex) ||
        !p.literal("\"}") || !p.atEnd())
        return false;
    // Check the length before hexDecode sizes the record from it.
    if (hex.size() / 2 != bytes || !hexDecode(hex, record))
        return false;
    std::uint64_t expected = 0;
    if (!parseFingerprintHex(check, expected))
        return false;
    if (manifestChecksum(record) != expected)
        return false;
    cell = static_cast<std::size_t>(index);
    return true;
}

/** A read-only descriptor, closed when it goes out of scope. */
class ReadOnlyFd
{
  public:
    explicit ReadOnlyFd(const std::string &path)
        : fd_(::open(path.c_str(), O_RDONLY | O_CLOEXEC))
    {
    }
    ~ReadOnlyFd()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    ReadOnlyFd(const ReadOnlyFd &) = delete;
    ReadOnlyFd &operator=(const ReadOnlyFd &) = delete;

    int get() const { return fd_; }

  private:
    int fd_;
};

/**
 * Read up to `limit` bytes of `path` into `text`, whose one buffer is
 * sized from fstat. A file that shrinks meanwhile yields what is
 * left; bytes appended after the fstat are not read, as if they had
 * come later.
 */
ManifestReadStatus
readPrefix(const std::string &path, std::size_t limit, std::string &text,
           std::string &error)
{
    const ReadOnlyFd fd(path);
    if (fd.get() < 0) {
        if (errno == ENOENT)
            return ManifestReadStatus::kMissing;
        error = path + ": cannot open manifest: " + std::strerror(errno);
        return ManifestReadStatus::kIoError;
    }
    struct stat st{};
    if (::fstat(fd.get(), &st) != 0) {
        error = path + ": cannot stat manifest: " + std::strerror(errno);
        return ManifestReadStatus::kIoError;
    }
    text.resize(std::min(limit, static_cast<std::size_t>(st.st_size)));
    std::size_t got = 0;
    while (got < text.size()) {
        const ssize_t n =
            ::read(fd.get(), text.data() + got, text.size() - got);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            error = path + ": read error: " + std::strerror(errno);
            return ManifestReadStatus::kIoError;
        }
        if (n == 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    text.resize(got);
    return ManifestReadStatus::kOk;
}

} // namespace

std::string
hexEncode(const std::vector<std::uint8_t> &data)
{
    std::string text(2 * data.size(), '\0');
    writeHex(data.data(), data.size(), text.data());
    return text;
}

bool
hexDecode(std::string_view text, std::vector<std::uint8_t> &out)
{
    if (text.size() % 2 != 0)
        return false;
    out.resize(text.size() / 2);
    // OR every digit value together and test once: a kNotHex anywhere
    // leaves bits above the low nibble set.
    std::uint8_t seen = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const std::uint8_t hi =
            kHexValue[static_cast<unsigned char>(text[2 * i])];
        const std::uint8_t lo =
            kHexValue[static_cast<unsigned char>(text[2 * i + 1])];
        seen |= hi | lo;
        out[i] = static_cast<std::uint8_t>(hi << 4 | lo);
    }
    return seen <= 0xf;
}

std::uint64_t
manifestChecksum(const std::vector<std::uint8_t> &data)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::uint8_t byte : data) {
        hash ^= byte;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

ManifestReadStatus
readManifestHeader(const std::string &path, ManifestHeader &out,
                   std::string &error)
{
    std::string text;
    const ManifestReadStatus status =
        readPrefix(path, kMaxHeaderBytes, text, error);
    if (status != ManifestReadStatus::kOk)
        return status;
    const std::size_t newline = text.find('\n');
    if (newline == std::string::npos && text.size() < kMaxHeaderBytes)
        return ManifestReadStatus::kMissing;
    std::string what = "line 1: malformed manifest header";
    if (newline == std::string::npos ||
        !parseHeaderLine(std::string_view(text.data(), newline), out,
                         what)) {
        error = path + ": " + what;
        return ManifestReadStatus::kCorrupt;
    }
    return ManifestReadStatus::kOk;
}

ManifestReadStatus
readManifest(const std::string &path, const ManifestHeader &expected,
             ManifestContents &out, std::string &error)
{
    std::string buffer;
    const ManifestReadStatus status =
        readPrefix(path, SIZE_MAX, buffer, error);
    if (status != ManifestReadStatus::kOk)
        return status;
    const std::string_view text = buffer;

    out = ManifestContents{};
    const auto corrupt = [&](const std::string &what) {
        error = path + ": " + what;
        return ManifestReadStatus::kCorrupt;
    };

    bool sawHeader = false;
    std::size_t lineStart = 0;
    std::size_t lineNo = 0;
    while (lineStart < text.size()) {
        const std::size_t newline = text.find('\n', lineStart);
        if (newline == std::string_view::npos) {
            // Torn final line: the expected artifact of a mid-write
            // kill. Drop it; the resuming writer truncates it away.
            out.tornTail = true;
            break;
        }
        const std::string_view line(text.data() + lineStart,
                                    newline - lineStart);
        ++lineNo;
        if (!sawHeader) {
            ManifestHeader header;
            std::string what;
            if (!parseHeaderLine(line, header, what))
                return corrupt(what);
            if (header.fingerprint != expected.fingerprint)
                return corrupt(
                    "sweep fingerprint " +
                    fingerprintHex(header.fingerprint) +
                    " does not match this sweep (expected " +
                    fingerprintHex(expected.fingerprint) +
                    "); the checkpoint belongs to a different grid");
            if (header.shard != expected.shard ||
                header.begin != expected.begin ||
                header.end != expected.end)
                return corrupt("shard range mismatch in header");
            out.header = header;
            sawHeader = true;
        } else {
            std::size_t cell = 0;
            std::vector<std::uint8_t> record;
            if (!parseCellLine(line, cell, record))
                return corrupt("line " + std::to_string(lineNo) +
                               ": malformed or checksum-failed cell "
                               "record");
            if (cell < expected.begin || cell >= expected.end)
                return corrupt("line " + std::to_string(lineNo) +
                               ": cell " + std::to_string(cell) +
                               " outside shard range");
            const auto existing = out.cells.find(cell);
            if (existing != out.cells.end()) {
                if (existing->second != record)
                    return corrupt(
                        "line " + std::to_string(lineNo) +
                        ": conflicting duplicate record for cell " +
                        std::to_string(cell));
                // Byte-identical duplicate (orphan worker race): keep
                // the first copy.
            } else {
                out.cells.emplace(cell, std::move(record));
            }
        }
        lineStart = newline + 1;
        out.validBytes = lineStart;
    }

    if (!sawHeader && !out.tornTail && !text.empty())
        return corrupt("no manifest header");
    if (!sawHeader)
        out.header = expected;
    return ManifestReadStatus::kOk;
}

ManifestWriter::~ManifestWriter()
{
    close();
}

void
ManifestWriter::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
ManifestWriter::open(const std::string &path,
                     const ManifestHeader &header,
                     std::size_t valid_bytes, std::string &error)
{
    close();
    path_ = path;
    // No O_APPEND: resume must first truncate away any torn tail, and
    // we are the only writer of this descriptor.
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
    if (fd_ < 0) {
        error = path + ": cannot open manifest for writing: " +
                std::strerror(errno);
        return false;
    }
    if (::ftruncate(fd_, static_cast<off_t>(valid_bytes)) != 0) {
        error = path + ": cannot truncate torn tail: " +
                std::strerror(errno);
        close();
        return false;
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
        error = path + ": cannot seek: " + std::strerror(errno);
        close();
        return false;
    }
    if (valid_bytes == 0) {
        const std::string line = headerLine(header);
        if (::write(fd_, line.data(), line.size()) !=
            static_cast<ssize_t>(line.size())) {
            error = path + ": cannot write manifest header: " +
                    std::strerror(errno);
            close();
            return false;
        }
    }
    if (::fsync(fd_) != 0) {
        error = path + ": fsync failed: " + std::strerror(errno);
        close();
        return false;
    }
    return true;
}

bool
ManifestWriter::appendCell(std::size_t cell,
                           const std::vector<std::uint8_t> &record,
                           std::string &error)
{
    if (fd_ < 0) {
        error = "manifest writer is not open";
        return false;
    }
    // One string sized for the whole line; the hex goes in place.
    std::string line = "{\"cell\":" + std::to_string(cell) +
                       ",\"check\":\"" +
                       fingerprintHex(manifestChecksum(record)) +
                       "\",\"bytes\":" + std::to_string(record.size()) +
                       ",\"data\":\"";
    constexpr std::string_view kTail = "\"}\n";
    const std::size_t hex = line.size();
    line.resize(hex + 2 * record.size() + kTail.size());
    writeHex(record.data(), record.size(), line.data() + hex);
    kTail.copy(line.data() + hex + 2 * record.size(), kTail.size());
    // One write() per line keeps a kill from interleaving two cells;
    // the worst case is one torn tail, which readers drop.
    if (::write(fd_, line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
        error = path_ + ": cell write failed: " + std::strerror(errno);
        return false;
    }
    if (::fsync(fd_) != 0) {
        error = path_ + ": fsync failed: " + std::strerror(errno);
        return false;
    }
    return true;
}

} // namespace busarb
