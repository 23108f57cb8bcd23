/**
 * @file
 * The parallel contention arbiter: wired-OR maximum finding (Section 2.1).
 *
 * Every competing agent applies its k-bit arbitration number to k wired-OR
 * lines and monitors them. When an agent sees a 1 on a line it is driving
 * with 0, it removes the lower-order bits of its number; if the line drops
 * back to 0 it re-applies them. The lines settle to the maximum competing
 * number. Taub proved the settle time is at most k/2 end-to-end bus
 * propagation delays [Taub84].
 *
 * Two views of a list of competitor words are provided:
 *  - settle(): the round-by-round remove/re-apply process, reporting how
 *    many propagation rounds were needed. It loads the words into an
 *    ArbitrationPass (bus/arbitration_pass.hh), the same word-parallel
 *    settle the protocols run on their frozen passes. Used to validate
 *    the mechanism and the timing model, and by the micro-benchmarks.
 *  - selectMax(): the logical outcome (maximum word, ties impossible since
 *    words embed unique static identities).
 */

#ifndef BUSARB_BUS_CONTENTION_HH
#define BUSARB_BUS_CONTENTION_HH

#include <cstdint>
#include <vector>

#include "bus/arbitration_pass.hh"
#include "sim/types.hh"

namespace busarb {

/** A competitor in one arbitration: an agent and its composite word. */
struct Competitor
{
    AgentId agent = kNoAgent;

    /**
     * The value driven onto the arbitration lines. For the plain parallel
     * contention arbiter this is the static identity; the RR and FCFS
     * protocols prepend dynamic high-order fields (Section 3).
     */
    std::uint64_t word = 0;
};

/**
 * Bit-level model of the parallel contention arbiter.
 */
class ContentionArbiter
{
  public:
    /**
     * @param num_lines Number of arbitration lines k; words must fit in
     *        k bits. Must be in [1, 63].
     */
    explicit ContentionArbiter(int num_lines);

    /** @return Number of arbitration lines. */
    int numLines() const { return numLines_; }

    /**
     * Run the remove/re-apply settle process to a fixed point, with the
     * word-parallel ArbitrationPass that the protocols use.
     *
     * @param competitors The agents applying words this arbitration;
     *        each agent competes at most once.
     * @return Settled word, winner, and propagation-round count.
     */
    SettleResult settle(const std::vector<Competitor> &competitors) const;

  private:
    int numLines_;

    // Reused across settle() calls; resized only when a call names a
    // higher agent id than any before.
    mutable ArbitrationPass pass_;
    mutable int passAgents_ = 0;
};

/**
 * Logical maximum finding over competitor words.
 *
 * @param competitors Competing agents. Words must be unique: the static
 *        identity in the low bits guarantees this for every protocol in
 *        this library. Duplicate maximal words would mean two agents both
 *        believe they won (a protocol design error), so this panics.
 * @return The winning agent, or kNoAgent when the set is empty.
 */
AgentId selectMax(const std::vector<Competitor> &competitors);

} // namespace busarb

#endif // BUSARB_BUS_CONTENTION_HH
