/**
 * @file
 * Compact binary encoding of bus observability events.
 *
 * The format is a sequence of self-contained chunks, one per scenario
 * run. Each chunk is:
 *
 *   magic "BATR"            4 bytes
 *   version                 1 byte (currently 1)
 *   num_agents              varint
 *   protocol name           varint length + bytes
 *   records                 1 tag byte + varint fields each
 *   end record              1 byte (tag 0)
 *
 * Every record carries its tick as an unsigned varint delta from the
 * previous record's tick (events are monotonic in time), so a typical
 * record is 3-8 bytes. Varints are unsigned LEB128. Counter records
 * refer to names via an id assigned by an in-stream name-definition
 * record, so the stream needs no out-of-band schema.
 *
 * The writer is a BusTracer: attach it to a Bus (or let the scenario
 * runner do it via ScenarioConfig::observe.captureTrace) and every bus
 * event is appended to an in-memory buffer. Because each scenario owns
 * its writer, capture is JobPool-safe and the bytes are identical at
 * any --jobs count.
 *
 * Each record checks for room once, for the longest record, and then
 * stores its fields through a byte cursor. The room grows in steps of
 * at most the bytes written so far, capped at a few KB, so a short run
 * allocates no more than a byte-at-a-time buffer would and a long one
 * never touches memory more than one step past its written bytes.
 */

#ifndef BUSARB_OBS_BINARY_TRACE_HH
#define BUSARB_OBS_BINARY_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bus/trace.hh"
#include "obs/trace_event.hh"

namespace busarb {

/** Append `value` to `out` as an unsigned LEB128 varint. */
void appendVarint(std::vector<std::uint8_t> &out, std::uint64_t value);

/**
 * Decode one unsigned LEB128 varint from [*cursor, end).
 *
 * @param cursor Advanced past the varint on success.
 * @param end One past the last readable byte.
 * @param out Receives the value.
 * @retval false Truncated or longer than 10 bytes.
 */
bool decodeVarint(const std::uint8_t **cursor, const std::uint8_t *end,
                  std::uint64_t &out);

/**
 * Serializes bus events into one binary trace chunk.
 */
class BinaryTraceWriter : public BusTracer
{
  public:
    /**
     * @param num_agents Number of agents on the traced bus.
     * @param protocol Protocol name recorded in the chunk header.
     */
    BinaryTraceWriter(int num_agents, const std::string &protocol);

    void onRequestPosted(const Request &req) override;
    void onPassStarted(Tick now) override;
    void onPassResolved(Tick now, Tick pass_start, const Request &winner,
                        bool retry) override;
    void onTenureStarted(const Request &req, Tick now) override;
    void onTenureEnded(const Request &req, Tick now) override;

    /**
     * Define a named counter; subsequent counterUpdate calls refer to
     * the returned id. Safe to call at any point in the stream.
     *
     * @param name Hierarchical counter name (metric convention).
     * @return The id for counterUpdate.
     */
    std::uint64_t defineCounter(const std::string &name);

    /** Append a counter-update record. */
    void counterUpdate(std::uint64_t id, Tick now, std::uint64_t value);

    /** @return Events written so far (excluding definitions). */
    std::uint64_t events() const { return events_; }

    /**
     * Terminate the chunk and surrender the buffer. The writer must
     * not be used afterwards.
     *
     * @return The complete chunk bytes.
     */
    std::vector<std::uint8_t> finish();

  private:
    /** Bytes [0, used_) are the chunk so far; the rest is room. */
    std::vector<std::uint8_t> buffer_;
    std::size_t used_ = 0;
    Tick lastTick_ = 0;
    std::uint64_t events_ = 0;
    std::uint64_t nextCounterId_ = 0;
    bool finished_ = false;

    /** @return The write cursor, with room for `bytes` more bytes. */
    std::uint8_t *
    room(std::size_t bytes)
    {
        if (buffer_.size() - used_ < bytes)
            grow(bytes);
        return buffer_.data() + used_;
    }

    /** Extend the room past the written bytes to at least `bytes`. */
    void grow(std::size_t bytes);

    /** Make the bytes up to `end` (a cursor from room()) written. */
    void
    commit(const std::uint8_t *end)
    {
        used_ = static_cast<std::size_t>(end - buffer_.data());
    }

    /**
     * Store the tag byte and the tick delta of an event at `now`.
     *
     * @return The cursor after them, with room for the longest record.
     */
    std::uint8_t *beginRecord(TraceEventKind kind, Tick now);
};

/** One decoded trace chunk (a full scenario run). */
struct TraceChunk
{
    int numAgents = 0;
    std::string protocol;
    std::vector<TraceEvent> events;

    /** Counter-name table; index is the id in kCounterUpdate events. */
    std::vector<std::string> counterNames;
};

/**
 * Decode a buffer of concatenated trace chunks.
 *
 * @param data Chunk bytes (e.g. a --trace-out file).
 * @param size Byte count.
 * @return The decoded chunks, in input order.
 * @throws std::runtime_error on malformed input.
 */
std::vector<TraceChunk> readTraceChunks(const std::uint8_t *data,
                                        std::size_t size);

/** Convenience overload for a byte vector. */
std::vector<TraceChunk>
readTraceChunks(const std::vector<std::uint8_t> &data);

} // namespace busarb

#endif // BUSARB_OBS_BINARY_TRACE_HH
