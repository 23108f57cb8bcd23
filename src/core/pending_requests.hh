/**
 * @file
 * Bookkeeping for posted-but-unserved requests, shared by the protocol
 * implementations.
 *
 * Each entry models one outstanding request together with one counter
 * of dynamic per-request state a distributed arbiter would keep in the
 * requester's interface logic.
 *
 * Storage is structure-of-arrays shaped for the per-pass hot loop: the
 * oldest pending request of each agent lives in a flat slot array
 * (`slot_[agent]`), so the arbitration scan touches one cache-friendly
 * array plus packed agent masks (who has a request, whose oldest is a
 * priority request, who has more than one). Closed workloads keep at
 * most one outstanding request per agent and never leave that fast
 * path; deeper per-agent FIFOs spill newer requests to a per-agent
 * overflow deque.
 */

#ifndef BUSARB_CORE_PENDING_REQUESTS_HH
#define BUSARB_CORE_PENDING_REQUESTS_HH

#include <bit>
#include <cstdint>
#include <deque>
#include <vector>

#include "bus/request.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace busarb {

/** A pending request plus its protocol-side dynamic state. */
struct PendingEntry
{
    Request req;

    /**
     * The protocol's per-request count: the ticket number of the central
     * ticket arbiter, or the raw (unclipped) waiting-time counter of an
     * FCFS or hybrid request behind its agent's oldest. The oldest
     * request's counter lives in the protocol's WaitCounters.
     */
    std::uint64_t counter = 0;
};

/**
 * Per-agent FIFO queues of pending requests.
 *
 * Requests of one agent are served oldest-first; across agents the
 * protocol decides.
 */
class PendingRequests
{
  public:
    /** Clear and size for `num_agents` agents (identities 1..N). */
    void reset(int num_agents);

    /** Append a new request for its agent. */
    PendingEntry &add(const Request &req);

    /** @return True if no requests are pending at all. */
    bool empty() const { return total_ == 0; }

    /** @return Total pending requests. */
    std::size_t size() const { return total_; }

    /** @return True if `agent` has at least one pending request. */
    bool
    hasAgent(AgentId agent) const
    {
        BUSARB_ASSERT(agent >= 1 && agent <= numAgents(),
                      "agent id out of range: ", agent);
        const auto bit = static_cast<std::size_t>(agent);
        return ((mask_[bit >> 6] >> (bit & 63)) & 1) != 0;
    }

    /** @return Number of pending requests of `agent`. */
    std::size_t
    numOfAgent(AgentId agent) const
    {
        if (!hasAgent(agent))
            return 0;
        return 1 + overflow_[static_cast<std::size_t>(agent)].size();
    }

    /** @return Oldest pending entry of `agent` (must exist). */
    PendingEntry &oldest(AgentId agent);
    const PendingEntry &oldest(AgentId agent) const;

    /**
     * @return The oldest pending priority request of `agent`, or
     *         nullptr when it has none.
     */
    PendingEntry *oldestPriority(AgentId agent);

    /**
     * Remove and return the oldest pending request of `agent`.
     *
     * @param agent Agent whose request was served.
     * @return The removed request.
     */
    Request popOldest(AgentId agent);

    /**
     * Find a pending entry by its request sequence number.
     *
     * @param agent Owning agent.
     * @param seq Request sequence number.
     * @return Pointer to the entry, or nullptr if not pending.
     */
    PendingEntry *findBySeq(AgentId agent, std::uint64_t seq);

    /**
     * Remove the entry with the given sequence number.
     *
     * @param agent Owning agent.
     * @param seq Request sequence number; must be pending.
     * @return The removed request.
     */
    Request popBySeq(AgentId agent, std::uint64_t seq);

    /**
     * Visit every pending entry (all agents, oldest to newest per agent).
     *
     * @param fn Callable taking (PendingEntry &).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t w = 0; w < mask_.size(); ++w) {
            std::uint64_t bits = mask_[w];
            while (bits != 0) {
                const auto a =
                    w * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                fn(slot_[a]);
                for (auto &entry : overflow_[a])
                    fn(entry);
                bits &= bits - 1;
            }
        }
    }

    /**
     * Visit the oldest pending entry of each agent that has one.
     *
     * @param fn Callable taking (PendingEntry &).
     */
    template <typename Fn>
    void
    forEachAgentOldest(Fn &&fn)
    {
        for (std::size_t w = 0; w < mask_.size(); ++w) {
            std::uint64_t bits = mask_[w];
            while (bits != 0) {
                fn(slot_[w * 64 + static_cast<std::size_t>(
                                      std::countr_zero(bits))]);
                bits &= bits - 1;
            }
        }
    }

    /**
     * Visit every agent with more than one pending request, in
     * ascending id order: a bit scan over a packed mask that closed
     * workloads never set.
     *
     * @param fn Callable taking (AgentId).
     */
    template <typename Fn>
    void
    forEachAgentWithSeveral(Fn &&fn) const
    {
        for (std::size_t w = 0; w < several_.size(); ++w) {
            for (std::uint64_t bits = several_[w]; bits != 0;
                 bits &= bits - 1) {
                fn(static_cast<AgentId>(w * 64 + std::countr_zero(bits)));
            }
        }
    }

    /**
     * Visit the pending entries of `agent` behind its oldest, oldest
     * first.
     *
     * @param agent Agent whose entries to visit.
     * @param fn Callable taking (PendingEntry &).
     */
    template <typename Fn>
    void
    forEachBehindOldest(AgentId agent, Fn &&fn)
    {
        BUSARB_ASSERT(agent >= 1 && agent <= numAgents(),
                      "agent id out of range: ", agent);
        for (auto &entry : overflow_[static_cast<std::size_t>(agent)])
            fn(entry);
    }

    /**
     * Visit every pending entry of one agent, oldest first.
     *
     * @param agent Agent whose entries to visit.
     * @param fn Callable taking (PendingEntry &).
     */
    template <typename Fn>
    void
    forEachOfAgent(AgentId agent, Fn &&fn)
    {
        if (!hasAgent(agent))
            return;
        const auto a = static_cast<std::size_t>(agent);
        fn(slot_[a]);
        for (auto &entry : overflow_[a])
            fn(entry);
    }

    /**
     * Visit every agent that has at least one pending request, in
     * ascending id order, via a bit scan over the packed request mask;
     * it allocates nothing, so the per-pass arbitration path can call
     * it.
     *
     * @param fn Callable taking (AgentId).
     */
    template <typename Fn>
    void
    forEachAgentWithRequests(Fn &&fn) const
    {
        for (std::size_t w = 0; w < mask_.size(); ++w) {
            std::uint64_t bits = mask_[w];
            while (bits != 0) {
                const int b = std::countr_zero(bits);
                fn(static_cast<AgentId>(w * 64 + b));
                bits &= bits - 1;
            }
        }
    }

    /**
     * Packed request mask word: bit a set iff agent w*64 + a has a
     * pending request. Mirrors the queues exactly.
     *
     * @param w Word index, < (numAgents + 1 + 63) / 64.
     * @return The packed word.
     */
    std::uint64_t requestMaskWord(std::size_t w) const { return mask_[w]; }

    /**
     * Packed priority mask word: bit a set iff agent w*64 + a has a
     * pending request and its oldest one is a priority request.
     */
    std::uint64_t
    priorityMaskWord(std::size_t w) const
    {
        return priority_[w];
    }

    /**
     * @param limit Exclusive agent-id bound.
     * @return True iff some agent with id < limit has a pending request.
     */
    bool
    hasAgentBelow(AgentId limit) const
    {
        const auto bound = static_cast<std::size_t>(limit);
        for (std::size_t w = 0; w < mask_.size() && w * 64 < bound; ++w) {
            std::uint64_t bits = mask_[w];
            if (bound < (w + 1) * 64)
                bits &= (1ULL << (bound - w * 64)) - 1ULL;
            if (bits != 0)
                return true;
        }
        return false;
    }

    /** @return Number of agents the container was reset for. */
    int numAgents() const { return static_cast<int>(slot_.size()) - 1; }

  private:
    /** Set or clear `agent`'s bit in one of the packed masks. */
    static void
    setMaskBit(std::vector<std::uint64_t> &mask, AgentId agent, bool on)
    {
        const auto bit = static_cast<std::size_t>(agent);
        const std::uint64_t m = 1ULL << (bit & 63);
        mask[bit >> 6] = on ? (mask[bit >> 6] | m) : (mask[bit >> 6] & ~m);
    }

    /** Oldest pending entry per agent (valid iff the mask bit is set). */
    std::vector<PendingEntry> slot_; // index by agent id
    /** Second-and-later pending entries per agent, oldest first. */
    std::vector<std::deque<PendingEntry>> overflow_; // index by agent id
    std::vector<std::uint64_t> mask_; // bit (id & 63) of word id/64
    std::vector<std::uint64_t> priority_; // oldest is a priority request
    std::vector<std::uint64_t> several_;  // more than one pending
    std::size_t total_ = 0;
};

} // namespace busarb

#endif // BUSARB_CORE_PENDING_REQUESTS_HH
