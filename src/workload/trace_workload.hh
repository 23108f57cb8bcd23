/**
 * @file
 * Trace-driven (open-loop) workload.
 *
 * The paper's fairness findings were corroborated by a trace simulation
 * study [EgGi87]. This module replays a fixed schedule of bus requests
 * — from a file, a programmatic list, or a synthetic generator — so
 * protocols can be compared on identical request sequences, open-loop
 * (arrival times do not react to bus delays, unlike ClosedAgent).
 *
 * Trace format (text, one request per line):
 *     <time-in-transaction-units> <agent-id> [p]
 * '#' starts a comment; blank lines are ignored; times must be finite,
 * >= 0, non-decreasing and within the tick clock's range. The trailing
 * 'p' marks a priority request. TraceWorkloadSource
 * (workload/workload_source.hh) replays a trace into a bus.
 */

#ifndef BUSARB_WORKLOAD_TRACE_WORKLOAD_HH
#define BUSARB_WORKLOAD_TRACE_WORKLOAD_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "random/rng.hh"
#include "sim/types.hh"

namespace busarb {

/** One trace record. */
struct TraceEntry
{
    Tick when = 0;
    AgentId agent = kNoAgent;
    bool priority = false;

    bool
    operator==(const TraceEntry &other) const
    {
        return when == other.when && agent == other.agent &&
               priority == other.priority;
    }
};

/** An ordered bus-request trace. */
class RequestTrace
{
  public:
    RequestTrace() = default;

    /** Append one record; times must be non-decreasing. */
    void append(Tick when, AgentId agent, bool priority = false);

    /** @return All records, in time order. */
    const std::vector<TraceEntry> &entries() const { return entries_; }

    /** @return Number of records. */
    std::size_t size() const { return entries_.size(); }

    /** @return True when the trace has no records. */
    bool empty() const { return entries_.empty(); }

    /** @return Largest agent id referenced (0 if empty). */
    AgentId maxAgent() const { return maxAgent_; }

    /**
     * Parse a trace from a stream (format in the file header).
     *
     * @param is Input stream.
     * @param out Receives the parsed trace.
     * @param error Receives `line N: <why>` on malformed input.
     * @retval false The input was malformed; `out` is unchanged.
     */
    static bool parse(std::istream &is, RequestTrace &out,
                      std::string &error);

    /** Serialize in the parseable text format. */
    void write(std::ostream &os) const;

    /**
     * Generate a synthetic Poisson trace.
     *
     * @param num_agents Agents 1..N, equal rates.
     * @param total_rate Aggregate request rate (requests per unit).
     * @param length Trace duration in transaction units.
     * @param rng Randomness source.
     * @return Trace with exponential inter-arrivals, uniform agents.
     */
    static RequestTrace poisson(int num_agents, double total_rate,
                                double length, Rng rng);

  private:
    std::vector<TraceEntry> entries_;
    AgentId maxAgent_ = 0;
};

} // namespace busarb

#endif // BUSARB_WORKLOAD_TRACE_WORKLOAD_HH
