/**
 * @file
 * Bookkeeping for posted-but-unserved requests, shared by the protocol
 * implementations.
 *
 * Each entry models one outstanding request together with the dynamic
 * per-request state a distributed arbiter would keep in the requester's
 * interface logic (waiting-time counter, arrival epoch, membership in the
 * currently frozen arbitration pass).
 *
 * Storage is structure-of-arrays shaped for the per-pass hot loop: the
 * oldest pending request of each agent lives in a flat slot array
 * (`slot_[agent]`), so the arbitration scan touches one cache-friendly
 * array plus a packed occupancy bitmask. Closed workloads keep at most
 * one outstanding request per agent and never leave that fast path;
 * deeper per-agent FIFOs spill newer requests to a per-agent overflow
 * deque.
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

    /** Waiting-time counter (FCFS Section 3.2); raw, before width clip. */
    std::uint64_t counter = 0;

    /** a-incr epoch at arrival (FCFS implementation 2). */
    std::uint64_t epoch = 0;

    /** True while the request is a competitor in the frozen pass. */
    bool inPass = false;
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

    /** @return The set of agents that currently have pending requests. */
    std::vector<AgentId> agentsWithRequests() const;

    /**
     * Visit every agent that has at least one pending request, in
     * ascending id order, via a bit scan over the packed request mask —
     * the allocation-free replacement for agentsWithRequests() on the
     * per-pass arbitration path.
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
    void setBit(AgentId agent);
    void clearBit(AgentId agent);

    /** Oldest pending entry per agent (valid iff the mask bit is set). */
    std::vector<PendingEntry> slot_; // index by agent id
    /** Second-and-later pending entries per agent, oldest first. */
    std::vector<std::deque<PendingEntry>> overflow_; // index by agent id
    std::vector<std::uint64_t> mask_; // bit (id & 63) of word id/64
    std::size_t total_ = 0;
};

} // namespace busarb

#endif // BUSARB_CORE_PENDING_REQUESTS_HH
