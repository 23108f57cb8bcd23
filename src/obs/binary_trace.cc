#include "obs/binary_trace.hh"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "sim/logging.hh"

namespace busarb {

namespace {

/** Record tags beyond the TraceEventKind values. */
constexpr std::uint8_t kTagEnd = 0;
constexpr std::uint8_t kTagDefineCounter = 7;

constexpr std::uint8_t kVersion = 1;
/** A chunk opens with the magic "BATR" and the version byte. */
constexpr std::uint8_t kChunkHeader[] = {'B', 'A', 'T', 'R', kVersion};

/** An unsigned LEB128 varint of 64 bits takes at most 10 bytes. */
constexpr std::size_t kMaxVarintBytes = 10;

/**
 * The longest event record: its tag, four varints (a pass resolution's
 * tick delta, duration, winner agent and seq) and a flag byte.
 */
constexpr std::size_t kMaxRecordBytes = 1 + 4 * kMaxVarintBytes + 1;

/** The writer's room grows by at most this many bytes at a time. */
constexpr std::size_t kMaxGrowStep = 4096;

/**
 * Store `value` at `p` as an unsigned LEB128 varint.
 *
 * @return One past the last byte stored (at most kMaxVarintBytes on).
 */
inline std::uint8_t *
storeVarint(std::uint8_t *p, std::uint64_t value)
{
    while (value >= 0x80) {
        *p++ = static_cast<std::uint8_t>(value) | 0x80;
        value >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(value);
    return p;
}

[[noreturn]] void
malformed(const char *what)
{
    throw std::runtime_error(std::string("malformed binary trace: ") +
                             what);
}

std::uint64_t
readVarintOrThrow(const std::uint8_t **cursor, const std::uint8_t *end)
{
    std::uint64_t value = 0;
    if (!decodeVarint(cursor, end, value))
        malformed("truncated varint");
    return value;
}

} // namespace

void
appendVarint(std::vector<std::uint8_t> &out, std::uint64_t value)
{
    std::uint8_t bytes[kMaxVarintBytes];
    out.insert(out.end(), bytes, storeVarint(bytes, value));
}

bool
decodeVarint(const std::uint8_t **cursor, const std::uint8_t *end,
             std::uint64_t &out)
{
    const std::uint8_t *p = *cursor;
    std::uint64_t value = 0;
    for (int shift = 0; shift < 70; shift += 7) {
        if (p == end)
            return false;
        const std::uint8_t byte = *p++;
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            *cursor = p;
            out = value;
            return true;
        }
    }
    return false; // more than 10 continuation bytes
}

BinaryTraceWriter::BinaryTraceWriter(int num_agents,
                                     const std::string &protocol)
{
    BUSARB_ASSERT(num_agents >= 1, "trace writer needs agents");
    std::uint8_t *p = room(sizeof(kChunkHeader) + 2 * kMaxVarintBytes +
                           protocol.size());
    p = std::copy(std::begin(kChunkHeader), std::end(kChunkHeader), p);
    p = storeVarint(p, static_cast<std::uint64_t>(num_agents));
    p = storeVarint(p, protocol.size());
    commit(std::copy(protocol.begin(), protocol.end(), p));
}

void
BinaryTraceWriter::grow(std::size_t bytes)
{
    // Zero-fill one step past the written bytes. The step follows the
    // buffer's size up to kMaxGrowStep, so a short trace stays as small
    // as a byte-at-a-time one, and the vector's own doubling keeps the
    // copies amortized.
    const std::size_t step = std::max(bytes, std::min(used_, kMaxGrowStep));
    buffer_.resize(used_ + step);
}

std::uint8_t *
BinaryTraceWriter::beginRecord(TraceEventKind kind, Tick now)
{
    BUSARB_ASSERT(!finished_, "write into a finished trace");
    BUSARB_ASSERT(now >= lastTick_, "trace event goes backwards in time");
    std::uint8_t *p = room(kMaxRecordBytes);
    *p++ = static_cast<std::uint8_t>(kind);
    p = storeVarint(p, static_cast<std::uint64_t>(now - lastTick_));
    lastTick_ = now;
    ++events_;
    return p;
}

void
BinaryTraceWriter::onRequestPosted(const Request &req)
{
    std::uint8_t *p = beginRecord(TraceEventKind::kRequestPosted,
                                  req.issued);
    p = storeVarint(p, static_cast<std::uint64_t>(req.agent));
    p = storeVarint(p, req.seq);
    *p++ = req.priority ? 1 : 0;
    commit(p);
}

void
BinaryTraceWriter::onPassStarted(Tick now)
{
    commit(beginRecord(TraceEventKind::kPassStarted, now));
}

void
BinaryTraceWriter::onPassResolved(Tick now, Tick pass_start,
                                  const Request &winner, bool retry)
{
    std::uint8_t *p = beginRecord(TraceEventKind::kPassResolved, now);
    p = storeVarint(p, static_cast<std::uint64_t>(now - pass_start));
    if (winner.valid()) {
        *p++ = 1;
        p = storeVarint(p, static_cast<std::uint64_t>(winner.agent));
        p = storeVarint(p, winner.seq);
    } else {
        *p++ = retry ? 2 : 0;
    }
    commit(p);
}

void
BinaryTraceWriter::onTenureStarted(const Request &req, Tick now)
{
    std::uint8_t *p = beginRecord(TraceEventKind::kTenureStarted, now);
    p = storeVarint(p, static_cast<std::uint64_t>(req.agent));
    commit(storeVarint(p, req.seq));
}

void
BinaryTraceWriter::onTenureEnded(const Request &req, Tick now)
{
    std::uint8_t *p = beginRecord(TraceEventKind::kTenureEnded, now);
    p = storeVarint(p, static_cast<std::uint64_t>(req.agent));
    commit(storeVarint(p, req.seq));
}

std::uint64_t
BinaryTraceWriter::defineCounter(const std::string &name)
{
    BUSARB_ASSERT(!finished_, "write into a finished trace");
    const std::uint64_t id = nextCounterId_++;
    std::uint8_t *p = room(1 + 2 * kMaxVarintBytes + name.size());
    *p++ = kTagDefineCounter;
    p = storeVarint(p, id);
    p = storeVarint(p, name.size());
    commit(std::copy(name.begin(), name.end(), p));
    return id;
}

void
BinaryTraceWriter::counterUpdate(std::uint64_t id, Tick now,
                                 std::uint64_t value)
{
    BUSARB_ASSERT(id < nextCounterId_, "counter id ", id,
                  " was never defined");
    std::uint8_t *p = beginRecord(TraceEventKind::kCounterUpdate, now);
    p = storeVarint(p, id);
    commit(storeVarint(p, value));
}

std::vector<std::uint8_t>
BinaryTraceWriter::finish()
{
    BUSARB_ASSERT(!finished_, "finish called twice");
    finished_ = true;
    std::uint8_t *p = room(1);
    *p++ = kTagEnd;
    commit(p);
    buffer_.resize(used_);
    return std::move(buffer_);
}

std::vector<TraceChunk>
readTraceChunks(const std::uint8_t *data, std::size_t size)
{
    std::vector<TraceChunk> chunks;
    const std::uint8_t *p = data;
    const std::uint8_t *const end = data + size;
    while (p != end) {
        if (end - p < 5 || p[0] != 'B' || p[1] != 'A' || p[2] != 'T' ||
            p[3] != 'R') {
            malformed("bad chunk magic");
        }
        p += 4;
        if (*p++ != kVersion)
            malformed("unsupported version");
        TraceChunk chunk;
        chunk.numAgents =
            static_cast<int>(readVarintOrThrow(&p, end));
        if (chunk.numAgents < 1)
            malformed("chunk without agents");
        const std::uint64_t name_len = readVarintOrThrow(&p, end);
        if (static_cast<std::uint64_t>(end - p) < name_len)
            malformed("truncated protocol name");
        chunk.protocol.assign(reinterpret_cast<const char *>(p),
                              static_cast<std::size_t>(name_len));
        p += name_len;

        Tick tick = 0;
        bool chunk_done = false;
        while (!chunk_done) {
            if (p == end)
                malformed("missing end record");
            const std::uint8_t tag = *p++;
            if (tag == kTagEnd) {
                chunk_done = true;
                break;
            }
            if (tag == kTagDefineCounter) {
                const std::uint64_t id = readVarintOrThrow(&p, end);
                if (id != chunk.counterNames.size())
                    malformed("counter ids out of order");
                const std::uint64_t len = readVarintOrThrow(&p, end);
                if (static_cast<std::uint64_t>(end - p) < len)
                    malformed("truncated counter name");
                chunk.counterNames.emplace_back(
                    reinterpret_cast<const char *>(p),
                    static_cast<std::size_t>(len));
                p += len;
                continue;
            }
            if (tag < 1 ||
                tag > static_cast<std::uint8_t>(
                          TraceEventKind::kCounterUpdate)) {
                malformed("unknown record tag");
            }
            TraceEvent ev;
            ev.kind = static_cast<TraceEventKind>(tag);
            const std::uint64_t delta = readVarintOrThrow(&p, end);
            if (delta > static_cast<std::uint64_t>(kMaxTick - tick))
                malformed("tick past the end of the tick clock");
            tick += static_cast<Tick>(delta);
            ev.tick = tick;
            switch (ev.kind) {
              case TraceEventKind::kRequestPosted:
                ev.agent = static_cast<AgentId>(
                    readVarintOrThrow(&p, end));
                ev.seq = readVarintOrThrow(&p, end);
                if (p == end)
                    malformed("truncated request record");
                ev.priority = (*p++ != 0);
                break;
              case TraceEventKind::kPassStarted:
                break;
              case TraceEventKind::kPassResolved: {
                const std::uint64_t dur = readVarintOrThrow(&p, end);
                ev.passStart = tick - static_cast<Tick>(dur);
                if (p == end)
                    malformed("truncated pass record");
                const std::uint8_t flags = *p++;
                if (flags == 1) {
                    ev.agent = static_cast<AgentId>(
                        readVarintOrThrow(&p, end));
                    ev.seq = readVarintOrThrow(&p, end);
                } else if (flags == 2) {
                    ev.retry = true;
                } else if (flags != 0) {
                    malformed("bad pass flags");
                }
                break;
              }
              case TraceEventKind::kTenureStarted:
              case TraceEventKind::kTenureEnded:
                ev.agent = static_cast<AgentId>(
                    readVarintOrThrow(&p, end));
                ev.seq = readVarintOrThrow(&p, end);
                break;
              case TraceEventKind::kCounterUpdate:
                ev.counterId = readVarintOrThrow(&p, end);
                if (ev.counterId >= chunk.counterNames.size())
                    malformed("counter update before definition");
                ev.counterValue = readVarintOrThrow(&p, end);
                break;
            }
            chunk.events.push_back(ev);
        }
        chunks.push_back(std::move(chunk));
    }
    return chunks;
}

std::vector<TraceChunk>
readTraceChunks(const std::vector<std::uint8_t> &data)
{
    return readTraceChunks(data.data(), data.size());
}

} // namespace busarb
