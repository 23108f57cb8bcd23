/**
 * @file
 * Binary trace format tests: varint coding, writer/reader round-trips,
 * chunk concatenation, and malformed-input rejection.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/binary_trace.hh"

namespace busarb {
namespace {

std::uint64_t
roundTripVarint(std::uint64_t value, std::size_t *encoded_size = nullptr)
{
    std::vector<std::uint8_t> buf;
    appendVarint(buf, value);
    if (encoded_size != nullptr)
        *encoded_size = buf.size();
    const std::uint8_t *cursor = buf.data();
    std::uint64_t out = 0;
    EXPECT_TRUE(decodeVarint(&cursor, buf.data() + buf.size(), out));
    EXPECT_EQ(cursor, buf.data() + buf.size());
    return out;
}

TEST(Varint, RoundTripsEdgeValues)
{
    for (const std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{127},
          std::uint64_t{128}, std::uint64_t{16383}, std::uint64_t{16384},
          std::uint64_t{0xdeadbeef},
          std::numeric_limits<std::uint64_t>::max()}) {
        EXPECT_EQ(roundTripVarint(v), v) << "value " << v;
    }
}

TEST(Varint, EncodedSizesMatchLeb128)
{
    std::size_t size = 0;
    roundTripVarint(0, &size);
    EXPECT_EQ(size, 1u);
    roundTripVarint(127, &size);
    EXPECT_EQ(size, 1u);
    roundTripVarint(128, &size);
    EXPECT_EQ(size, 2u);
    roundTripVarint(std::numeric_limits<std::uint64_t>::max(), &size);
    EXPECT_EQ(size, 10u);
}

TEST(Varint, TruncatedInputFails)
{
    std::vector<std::uint8_t> buf;
    appendVarint(buf, 1u << 20); // multi-byte encoding
    for (std::size_t keep = 0; keep + 1 < buf.size(); ++keep) {
        const std::uint8_t *cursor = buf.data();
        std::uint64_t out = 0;
        EXPECT_FALSE(decodeVarint(&cursor, buf.data() + keep, out));
    }
}

TEST(Varint, OverlongInputFails)
{
    // Eleven continuation bytes can never be a valid 64-bit varint.
    const std::vector<std::uint8_t> buf(11, 0x80);
    const std::uint8_t *cursor = buf.data();
    std::uint64_t out = 0;
    EXPECT_FALSE(decodeVarint(&cursor, buf.data() + buf.size(), out));
}

Request
makeRequest(AgentId agent, Tick issued, std::uint64_t seq,
            bool priority = false)
{
    Request req;
    req.agent = agent;
    req.issued = issued;
    req.seq = seq;
    req.priority = priority;
    return req;
}

TEST(BinaryTrace, RoundTripsEveryRecordKind)
{
    BinaryTraceWriter writer(4, "test-protocol");
    const std::uint64_t ops = writer.defineCounter("bus.ops");

    writer.onRequestPosted(makeRequest(2, 1000, 7, true));
    writer.onPassStarted(1000);
    writer.onPassResolved(1500, 1000, makeRequest(2, 1000, 7), false);
    writer.onTenureStarted(makeRequest(2, 1000, 7), 1500);
    writer.counterUpdate(ops, 2000, 42);
    writer.onTenureEnded(makeRequest(2, 1000, 7), 2500);
    writer.onPassStarted(2500);
    writer.onPassResolved(3000, 2500, Request{}, true); // retry pass
    writer.onPassStarted(3000);
    writer.onPassResolved(3500, 3000, Request{}, false); // idle pass

    const std::vector<std::uint8_t> bytes = writer.finish();
    const auto chunks = readTraceChunks(bytes);
    ASSERT_EQ(chunks.size(), 1u);
    const TraceChunk &chunk = chunks.front();

    EXPECT_EQ(chunk.numAgents, 4);
    EXPECT_EQ(chunk.protocol, "test-protocol");
    ASSERT_EQ(chunk.counterNames.size(), 1u);
    EXPECT_EQ(chunk.counterNames[0], "bus.ops");
    ASSERT_EQ(chunk.events.size(), 10u);

    const TraceEvent &request = chunk.events[0];
    EXPECT_EQ(request.kind, TraceEventKind::kRequestPosted);
    EXPECT_EQ(request.tick, 1000);
    EXPECT_EQ(request.agent, 2);
    EXPECT_EQ(request.seq, 7u);
    EXPECT_TRUE(request.priority);

    const TraceEvent &resolve = chunk.events[2];
    EXPECT_EQ(resolve.kind, TraceEventKind::kPassResolved);
    EXPECT_EQ(resolve.tick, 1500);
    EXPECT_EQ(resolve.passStart, 1000);
    EXPECT_EQ(resolve.agent, 2);
    EXPECT_FALSE(resolve.retry);

    const TraceEvent &counter = chunk.events[4];
    EXPECT_EQ(counter.kind, TraceEventKind::kCounterUpdate);
    EXPECT_EQ(counter.tick, 2000);
    EXPECT_EQ(counter.counterId, 0u);
    EXPECT_EQ(counter.counterValue, 42u);

    const TraceEvent &retry = chunk.events[7];
    EXPECT_EQ(retry.kind, TraceEventKind::kPassResolved);
    EXPECT_EQ(retry.agent, kNoAgent);
    EXPECT_TRUE(retry.retry);

    const TraceEvent &idle = chunk.events[9];
    EXPECT_EQ(idle.agent, kNoAgent);
    EXPECT_FALSE(idle.retry);
    EXPECT_EQ(idle.passStart, 3000);
}

TEST(BinaryTrace, ConcatenatedChunksDecodeInOrder)
{
    BinaryTraceWriter first(2, "alpha");
    first.onPassStarted(100);
    std::vector<std::uint8_t> bytes = first.finish();

    BinaryTraceWriter second(3, "beta");
    second.onPassStarted(200);
    second.onPassStarted(300);
    const std::vector<std::uint8_t> tail = second.finish();
    bytes.insert(bytes.end(), tail.begin(), tail.end());

    const auto chunks = readTraceChunks(bytes);
    ASSERT_EQ(chunks.size(), 2u);
    EXPECT_EQ(chunks[0].protocol, "alpha");
    EXPECT_EQ(chunks[0].numAgents, 2);
    EXPECT_EQ(chunks[0].events.size(), 1u);
    EXPECT_EQ(chunks[1].protocol, "beta");
    EXPECT_EQ(chunks[1].numAgents, 3);
    EXPECT_EQ(chunks[1].events.size(), 2u);
    // Tick deltas restart per chunk.
    EXPECT_EQ(chunks[1].events[0].tick, 200);
    EXPECT_EQ(chunks[1].events[1].tick, 300);
}

TEST(BinaryTrace, EmptyBufferYieldsNoChunks)
{
    EXPECT_TRUE(readTraceChunks(nullptr, 0).empty());
}

TEST(BinaryTrace, EventCountExcludesDefinitions)
{
    BinaryTraceWriter writer(1, "p");
    writer.defineCounter("a");
    EXPECT_EQ(writer.events(), 0u);
    writer.onPassStarted(0);
    EXPECT_EQ(writer.events(), 1u);
}

TEST(BinaryTrace, RejectsMalformedInput)
{
    // Bad magic.
    const std::vector<std::uint8_t> junk = {'J', 'U', 'N', 'K', 1, 0};
    EXPECT_THROW(readTraceChunks(junk), std::runtime_error);

    BinaryTraceWriter writer(2, "p");
    writer.onPassStarted(50);
    const std::vector<std::uint8_t> good = writer.finish();

    // Every truncation of a valid chunk must be rejected, not crash.
    for (std::size_t keep = 1; keep < good.size(); ++keep) {
        const std::vector<std::uint8_t> cut(good.begin(),
                                            good.begin() + keep);
        EXPECT_THROW(readTraceChunks(cut), std::runtime_error)
            << "kept " << keep << " of " << good.size() << " bytes";
    }

    // Unsupported version byte.
    std::vector<std::uint8_t> wrong_version = good;
    wrong_version[4] = 99;
    EXPECT_THROW(readTraceChunks(wrong_version), std::runtime_error);

    // Unknown record tag where the end record belongs.
    std::vector<std::uint8_t> bad_tag = good;
    bad_tag[bad_tag.size() - 1] = 200;
    EXPECT_THROW(readTraceChunks(bad_tag), std::runtime_error);

    // A tick delta that runs past the end of the tick clock.
    BinaryTraceWriter late(1, "p");
    late.onPassStarted(kMaxTick);
    std::vector<std::uint8_t> overflow = late.finish();
    overflow.pop_back(); // the end record
    overflow.push_back(
        static_cast<std::uint8_t>(TraceEventKind::kPassStarted));
    appendVarint(overflow, 1);
    overflow.push_back(0); // the end record again
    EXPECT_THROW(readTraceChunks(overflow), std::runtime_error);
}

/**
 * A byte-at-a-time writer: every field appended with push_back, the
 * plainest statement of format v1. It is the reference the cursor
 * writer must match byte for byte.
 */
class ReferenceTraceWriter
{
  public:
    ReferenceTraceWriter(int num_agents, const std::string &protocol)
        : buffer_{'B', 'A', 'T', 'R', 1}
    {
        varint(static_cast<std::uint64_t>(num_agents));
        varint(protocol.size());
        buffer_.insert(buffer_.end(), protocol.begin(), protocol.end());
    }

    void
    onRequestPosted(const Request &req)
    {
        beginRecord(TraceEventKind::kRequestPosted, req.issued);
        varint(static_cast<std::uint64_t>(req.agent));
        varint(req.seq);
        buffer_.push_back(req.priority ? 1 : 0);
    }

    void
    onPassStarted(Tick now)
    {
        beginRecord(TraceEventKind::kPassStarted, now);
    }

    void
    onPassResolved(Tick now, Tick pass_start, const Request &winner,
                   bool retry)
    {
        beginRecord(TraceEventKind::kPassResolved, now);
        varint(static_cast<std::uint64_t>(now - pass_start));
        std::uint8_t flags = 0;
        if (winner.valid())
            flags = 1;
        else if (retry)
            flags = 2;
        buffer_.push_back(flags);
        if (winner.valid()) {
            varint(static_cast<std::uint64_t>(winner.agent));
            varint(winner.seq);
        }
    }

    void
    onTenureStarted(const Request &req, Tick now)
    {
        beginRecord(TraceEventKind::kTenureStarted, now);
        varint(static_cast<std::uint64_t>(req.agent));
        varint(req.seq);
    }

    void
    onTenureEnded(const Request &req, Tick now)
    {
        beginRecord(TraceEventKind::kTenureEnded, now);
        varint(static_cast<std::uint64_t>(req.agent));
        varint(req.seq);
    }

    std::uint64_t
    defineCounter(const std::string &name)
    {
        buffer_.push_back(7);
        const std::uint64_t id = nextCounterId_++;
        varint(id);
        varint(name.size());
        buffer_.insert(buffer_.end(), name.begin(), name.end());
        return id;
    }

    void
    counterUpdate(std::uint64_t id, Tick now, std::uint64_t value)
    {
        beginRecord(TraceEventKind::kCounterUpdate, now);
        varint(id);
        varint(value);
    }

    std::uint64_t events() const { return events_; }

    std::vector<std::uint8_t>
    finish()
    {
        buffer_.push_back(0);
        return std::move(buffer_);
    }

  private:
    std::vector<std::uint8_t> buffer_;
    Tick lastTick_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t nextCounterId_ = 0;

    void
    varint(std::uint64_t value)
    {
        while (value >= 0x80) {
            buffer_.push_back(static_cast<std::uint8_t>(value) | 0x80);
            value >>= 7;
        }
        buffer_.push_back(static_cast<std::uint8_t>(value));
    }

    void
    beginRecord(TraceEventKind kind, Tick now)
    {
        buffer_.push_back(static_cast<std::uint8_t>(kind));
        varint(static_cast<std::uint64_t>(now - lastTick_));
        lastTick_ = now;
        ++events_;
    }
};

/** Seeded draws whose LEB128 encodings take a chosen byte count. */
class VarintDraws
{
  public:
    explicit VarintDraws(std::uint64_t seed) : rng_(seed) {}

    /** @return A value whose varint is `bytes` (1-10) bytes long. */
    std::uint64_t
    ofLength(int bytes)
    {
        const std::uint64_t low =
            bytes == 1 ? 0 : std::uint64_t{1} << (7 * (bytes - 1));
        const std::uint64_t high =
            bytes >= 10 ? std::numeric_limits<std::uint64_t>::max()
                        : (std::uint64_t{1} << (7 * bytes)) - 1;
        return std::uniform_int_distribution<std::uint64_t>(low,
                                                            high)(rng_);
    }

    /** @return A value of a uniformly drawn varint length 1-10. */
    std::uint64_t any() { return ofLength(below(10) + 1); }

    /** @return A uniform draw from [0, n). */
    int
    below(int n)
    {
        return std::uniform_int_distribution<int>(0, n - 1)(rng_);
    }

  private:
    std::mt19937_64 rng_;
};

/** Feed one event stream to both writers. */
struct WriterPair
{
    BinaryTraceWriter cursor;
    ReferenceTraceWriter reference;
    std::vector<std::uint64_t> counters;

    WriterPair(int num_agents, const std::string &protocol)
        : cursor(num_agents, protocol), reference(num_agents, protocol)
    {
    }

    template <typename Fn>
    void
    both(Fn fn)
    {
        fn(cursor);
        fn(reference);
    }
};

Request
drawnRequest(VarintDraws &draws, Tick issued)
{
    // Any int agent, negatives too: they encode as 10-byte varints.
    const auto agent = static_cast<AgentId>(
        static_cast<std::uint32_t>(draws.ofLength(draws.below(5) + 1)));
    return makeRequest(agent, issued, draws.any(), draws.below(2) == 1);
}

/**
 * One seeded stream of `records` events: every record kind, counter
 * definitions interleaved with updates, and fields of every varint
 * length. Tick deltas take every length a Tick can (1-9 bytes): the
 * first 90% of records add up to 3-byte deltas with one jump of each
 * length 4-8 on the way, then one 9-byte jump lands the clock within
 * `records` ticks of kMaxTick, and the rest step by 0 or 1 to it.
 */
void
feedRandomStream(WriterPair &pair, VarintDraws &draws, int records)
{
    Tick now = 0;
    const int last_jump = records * 9 / 10;
    const int stride = std::max(1, last_jump / 6);
    for (int i = 0; i < records; ++i) {
        Tick delta = 0;
        if (i == last_jump) {
            delta = kMaxTick - now - records;
        } else if (i > last_jump) {
            delta = draws.below(2);
        } else if (i % stride == stride / 2 && i / stride < 5) {
            delta = static_cast<Tick>(draws.ofLength(4 + i / stride));
        } else {
            delta = static_cast<Tick>(draws.ofLength(draws.below(3) + 1));
        }
        now += delta;
        switch (draws.below(8)) {
          case 0: {
            const Request req = drawnRequest(draws, now);
            pair.both([&](auto &w) { w.onRequestPosted(req); });
            break;
          }
          case 1:
            pair.both([&](auto &w) { w.onPassStarted(now); });
            break;
          case 2: {
            // A duration of any length the clock allows, a winner or an
            // empty pass (retry or not).
            const Tick duration = static_cast<Tick>(
                draws.ofLength(draws.below(9) + 1) %
                static_cast<std::uint64_t>(now + 1));
            const Request winner = draws.below(2) == 1
                                       ? drawnRequest(draws, now)
                                       : Request{};
            const bool retry = draws.below(2) == 1;
            pair.both([&](auto &w) {
                w.onPassResolved(now, now - duration, winner, retry);
            });
            break;
          }
          case 3: {
            const Request req = drawnRequest(draws, now);
            pair.both([&](auto &w) { w.onTenureStarted(req, now); });
            break;
          }
          case 4: {
            const Request req = drawnRequest(draws, now);
            pair.both([&](auto &w) { w.onTenureEnded(req, now); });
            break;
          }
          case 5: {
            // A definition carries no tick; it may name up to 300 bytes.
            const std::string name(
                static_cast<std::size_t>(draws.below(301)),
                static_cast<char>('a' + draws.below(26)));
            const std::uint64_t id = pair.cursor.defineCounter(name);
            EXPECT_EQ(pair.reference.defineCounter(name), id);
            pair.counters.push_back(id);
            [[fallthrough]];
          }
          default: {
            if (pair.counters.empty())
                break;
            const std::uint64_t id = pair.counters[static_cast<std::size_t>(
                draws.below(static_cast<int>(pair.counters.size())))];
            const std::uint64_t value = draws.any();
            pair.both([&](auto &w) { w.counterUpdate(id, now, value); });
            break;
          }
        }
    }
    if (records > 0) {
        EXPECT_GE(now, kMaxTick - records);
    }
}

TEST(BinaryTrace, CursorWriterMatchesReferenceBytes)
{
    VarintDraws draws(0x7ace5eed);
    // Streams from empty to 300 000 records (about 3 MB), so the room
    // grows through every step below its cap and many at the cap; the
    // headers take agent counts and protocol names of every size.
    for (const int records : {0, 1, 2, 50, 4000, 300000}) {
        const int agents = static_cast<int>(
            draws.ofLength(draws.below(5) + 1) & 0x7fffffff) | 1;
        const std::string protocol(
            static_cast<std::size_t>(draws.below(400)), 'p');
        WriterPair pair(agents, protocol);
        feedRandomStream(pair, draws, records);
        EXPECT_EQ(pair.cursor.events(), pair.reference.events());
        const std::vector<std::uint8_t> got = pair.cursor.finish();
        const std::vector<std::uint8_t> want = pair.reference.finish();
        ASSERT_EQ(got.size(), want.size()) << records << " records";
        const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
        EXPECT_TRUE(diff.first == got.end())
            << records << " records: first difference at byte "
            << (diff.first - got.begin());
        // The bytes decode as one chunk.
        if (records > 0) {
            const auto chunks = readTraceChunks(got);
            ASSERT_EQ(chunks.size(), 1u);
        }
    }
}

TEST(BinaryTraceDeathTest, BackwardsTimePanics)
{
    BinaryTraceWriter writer(1, "p");
    writer.onPassStarted(1000);
    EXPECT_DEATH(writer.onPassStarted(500), "backwards in time");
}

} // namespace
} // namespace busarb
