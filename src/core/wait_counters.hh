/**
 * @file
 * Waiting-time counters in the shape the arbitration lines carry them
 * (Section 3.2).
 *
 * FCFS's arbitration word is [waiting-time counter | static identity],
 * and each counter bit is one wired-OR line, i.e. one agent mask.
 * WaitCounters keeps the counter of each agent's oldest pending request
 * bit-sliced: one plane per counter bit, packed 64 agents to a word in
 * the ArbitrationPass layout (bit a of word w is agent w*64 + a). Each
 * agent's counter is one column across the planes, and plane b is the
 * driver mask of counter line b as it stands.
 *
 * A lost pass or an a-incr pulse is the same +1 that every affected
 * interface applies to its own counter at once. Here it is one
 * ripple-carry add of an agent mask across the planes: each plane flips
 * where the carry reaches it, and the carry goes on only where the plane
 * held a 1. The carry out of the top plane marks the counters that were
 * at their maximum: saturate ORs it back into every plane, wrap drops
 * it. Each counter also remembers whether it has overflowed, so an
 * overflow is counted once per request, not once per carry.
 */

#ifndef BUSARB_CORE_WAIT_COUNTERS_HH
#define BUSARB_CORE_WAIT_COUNTERS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace busarb {

/** What happens when a waiting-time counter exceeds its width. */
enum class OverflowPolicy {
    /** Clamp at the maximum representable value (ties among the oldest). */
    kSaturate,
    /** Wrap modulo 2^bits (the paper's "reset to zero" overflow). */
    kWrap,
};

/**
 * Bit-sliced waiting-time counters, one per agent.
 */
class WaitCounters
{
  public:
    /**
     * Size the counters; every counter starts at 0.
     *
     * @param num_agents Agent ids are 1..num_agents (>= 1).
     * @param width Counter width in bits, in [1, 63].
     * @param policy What a counter at its maximum does on +1.
     */
    void reset(int num_agents, int width, OverflowPolicy policy);

    /** @return Number of 64-agent mask words per plane. */
    std::size_t numWords() const { return numWords_; }

    /** @return The largest value a counter holds, 2^width - 1. */
    std::uint64_t max() const { return max_; }

    /**
     * @param raw A counter value before the width limit.
     * @return The value a counter of this width holds for it.
     */
    std::uint64_t
    clip(std::uint64_t raw) const
    {
        if (raw <= max_)
            return raw;
        return policy_ == OverflowPolicy::kSaturate ? max_ : (raw & max_);
    }

    /**
     * Load `agent`'s counter, for a request that becomes the agent's
     * oldest. A raw value above max() is clipped and counts as already
     * overflowed.
     */
    void set(AgentId agent, std::uint64_t raw);

    /** @return `agent`'s counter value. */
    std::uint64_t value(AgentId agent) const;

    /**
     * @param bit Counter bit, in [0, width).
     * @param w Word index, < numWords().
     * @return Word w of plane `bit`: the agents whose counter has that
     *         bit set.
     */
    std::uint64_t
    plane(int bit, std::size_t w) const
    {
        return planes_[static_cast<std::size_t>(bit) * numWords_ + w];
    }

    /**
     * Add 1 to the counter of every agent in word w of `mask`.
     *
     * @param w Word index, < numWords().
     * @param mask Agents w*64 + a for each set bit a.
     * @return How many of those counters overflowed for the first time.
     */
    int
    increment(std::size_t w, std::uint64_t mask)
    {
        std::uint64_t carry = mask;
        std::uint64_t *p = planes_.data() + w;
        for (int b = 0; b < width_ && carry != 0; ++b, p += numWords_) {
            const std::uint64_t held = *p;
            *p = held ^ carry;
            carry &= held;
        }
        if (carry == 0)
            return 0;
        // The carry left the top plane, so p is at word w of the plane
        // above it: the overflow marks.
        if (policy_ == OverflowPolicy::kSaturate) {
            for (std::uint64_t *q = planes_.data() + w; q != p;
                 q += numWords_) {
                *q |= carry;
            }
        }
        const std::uint64_t first = carry & ~*p;
        *p |= carry;
        return std::popcount(first);
    }

  private:
    int width_ = 0;
    std::size_t numWords_ = 0;
    std::uint64_t max_ = 0;
    OverflowPolicy policy_ = OverflowPolicy::kSaturate;
    int numAgents_ = 0;

    /**
     * (width_ + 1) x numWords_: the counter planes, lowest bit first,
     * then one plane of overflow marks (the counter has overflowed since
     * set()).
     */
    std::vector<std::uint64_t> planes_;
};

} // namespace busarb

#endif // BUSARB_CORE_WAIT_COUNTERS_HH
