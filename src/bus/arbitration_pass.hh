/**
 * @file
 * One arbitration pass in the shape the wired-OR lines carry it.
 *
 * The parallel contention arbiter (Section 2.1) resolves the maximum one
 * line at a time, with every agent acting at once. ArbitrationPass keeps
 * a pass in that shape: a competitor mask plus, for every arbitration
 * line, the mask of agents that drive a 1 on it, packed 64 agents to a
 * word in the layout PendingRequests uses (bit a of word w is agent
 * w*64 + a). Lines [0, identityLines) carry the static
 * identities and are built once by reset(); the lines above hold the
 * protocol's dynamic fields (RR bit, waiting-time counter, priority
 * class, ...), which the protocol fills at the start of each pass.
 *
 * Both questions a pass asks are then whole-word operations:
 *  - winner(): the maximum word, by walking the lines top-down and
 *    narrowing the alive set to the agents that drive 1 wherever any
 *    alive agent does.
 *  - settle(): the outcome of the Section 2.1 remove/re-apply process
 *    in synchronous rounds, in closed form: the same top-down walk also
 *    tracks the agents whose low bits put stray lines above the maximum
 *    in the even rounds, and the round count follows from those strays
 *    (docs/PROTOCOLS.md §2.1 gives the proof; the per-agent round loop
 *    in tests/support/settle_oracle.hh is the definition it is held to).
 *
 * A pass never allocates once reset() has sized it.
 */

#ifndef BUSARB_BUS_ARBITRATION_PASS_HH
#define BUSARB_BUS_ARBITRATION_PASS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace busarb {

/** Outcome of the bit-level settle process. */
struct SettleResult
{
    /** The value the lines carry at steady state (0 if nobody competed). */
    std::uint64_t settledWord = 0;

    /** The winning agent (kNoAgent if nobody competed). */
    AgentId winner = kNoAgent;

    /**
     * Number of propagation rounds until no agent changed its applied
     * word. One round models one end-to-end bus propagation delay in
     * which every agent re-evaluates the lines simultaneously.
     */
    int rounds = 0;
};

/**
 * Number of arbitration lines needed for N agents: ceil(log2(N + 1)),
 * since identity 0 is reserved (Section 2.1).
 *
 * @param num_agents Number of agents N >= 1.
 * @return Line count k.
 */
int linesForAgents(int num_agents);

/**
 * @param limit Exclusive agent-id bound (>= 0).
 * @param w Mask word index.
 * @return Word w of the mask of agent ids below `limit` — the RR rule's
 *         "identity smaller than the recorded winner".
 */
inline std::uint64_t
agentsBelowWord(AgentId limit, std::size_t w)
{
    const auto bound = static_cast<std::uint64_t>(limit);
    const std::uint64_t base = static_cast<std::uint64_t>(w) * 64;
    if (bound <= base)
        return 0;
    if (bound >= base + 64)
        return ~0ULL;
    return (1ULL << (bound - base)) - 1ULL;
}

/**
 * One arbitration pass: competitors and per-line driver masks.
 */
class ArbitrationPass
{
  public:
    /**
     * Size the pass and build the identity lines; the pass starts empty.
     *
     * @param num_agents Agent ids are 1..num_agents (>= 1).
     * @param num_lines Arbitration lines k, in [1, 63].
     * @param identity_lines Low lines that carry the static identity:
     *        linesForAgents(num_agents) for a protocol, or 0 when the
     *        caller drives every line itself.
     */
    void reset(int num_agents, int num_lines, int identity_lines);

    /** Start a new pass: no competitors and every dynamic line at 0. */
    void clear();

    /** @return Number of 64-agent mask words per line. */
    std::size_t numWords() const { return numWords_; }

    /**
     * Word w of the competitor mask, for whole-word updates.
     *
     * @param w Word index, < numWords().
     */
    std::uint64_t &
    competitorWord(std::size_t w)
    {
        return competitors_[w];
    }

    /**
     * Word w of a dynamic line's driver mask, for whole-word updates.
     * Bits of agents that do not compete are ignored.
     *
     * @param line Line index in [identityLines, numLines).
     * @param w Word index, < numWords().
     */
    std::uint64_t &
    lineWord(int line, std::size_t w)
    {
        BUSARB_ASSERT(line >= identityLines_ && line < numLines_,
                      "line ", line, " is not a dynamic line");
        return lines_[static_cast<std::size_t>(line) * numWords_ + w];
    }

    /** `agent` competes in this pass. */
    void
    addCompetitor(AgentId agent)
    {
        const std::size_t bit = bitOf(agent);
        competitors_[bit >> 6] |= 1ULL << (bit & 63);
    }

    /** @return True iff `agent` competes in this pass. */
    bool
    competes(AgentId agent) const
    {
        const std::size_t bit = bitOf(agent);
        return ((competitors_[bit >> 6] >> (bit & 63)) & 1ULL) != 0;
    }

    /** `agent` drives a 1 on dynamic line `line`. */
    void
    drive(int line, AgentId agent)
    {
        const std::size_t bit = bitOf(agent);
        lineWord(line, bit >> 6) |= 1ULL << (bit & 63);
    }

    /** @return True iff `agent` drives a 1 on `line`. */
    bool
    drives(int line, AgentId agent) const
    {
        BUSARB_ASSERT(line >= 0 && line < numLines_, "line out of range: ",
                      line);
        const std::size_t bit = bitOf(agent);
        return ((lines_[static_cast<std::size_t>(line) * numWords_ +
                        (bit >> 6)] >>
                 (bit & 63)) &
                1ULL) != 0;
    }

    /** @return True iff nobody competes. */
    bool empty() const;

    /**
     * @return The competitor with the maximum word (kNoAgent if none).
     *         Two competitors sharing the maximum word is a protocol
     *         design error and panics.
     */
    AgentId winner() const;

    /**
     * The fixed point of the remove/re-apply settle process and the
     * number of rounds it takes, in one walk over the lines.
     *
     * @return Settled word, winner, and propagation-round count.
     */
    SettleResult settle() const;

  private:
    std::size_t
    bitOf(AgentId agent) const
    {
        BUSARB_ASSERT(agent >= 1 && agent <= numAgents_,
                      "agent id out of range: ", agent);
        return static_cast<std::size_t>(agent);
    }

    const std::uint64_t *
    line(int j) const
    {
        return &lines_[static_cast<std::size_t>(j) * numWords_];
    }

    /** winner() and settle() for W mask words (0: numWords_ words). */
    template <std::size_t W> AgentId winnerWords() const;
    template <std::size_t W> SettleResult settleWords() const;

    int numAgents_ = 0;
    int numLines_ = 0;
    int identityLines_ = 0;
    std::size_t numWords_ = 0;

    std::vector<std::uint64_t> competitors_; // numWords_
    std::vector<std::uint64_t> lines_;       // numLines_ x numWords_

    // Scratch for winner() and settle() beyond two mask words, sized by
    // reset(): the alive set, then settle()'s re-applying set.
    mutable std::vector<std::uint64_t> scratch_; // 2 x numWords_
};

} // namespace busarb

#endif // BUSARB_BUS_ARBITRATION_PASS_HH
