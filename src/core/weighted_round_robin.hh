/**
 * @file
 * Weighted round-robin arbitration over the parallel contention
 * arbiter.
 *
 * A distributed generalization of RR implementation 1 (Section 3.1) in
 * the spirit of weighted round-robin NoC arbiters (Mandal et al.,
 * arXiv:2108.09534): each agent carries an integer weight, and the
 * current holder may win up to `weight` consecutive arbitrations before
 * its round-robin turn ends. With all weights equal to 1 the schedule
 * degenerates to plain round-robin implementation 1.
 *
 * The mechanism stays fully distributed: one extra bus line (the
 * "claim" line, above the RR priority bit) is asserted by the previous
 * winner while it still has burst credits. Every agent can maintain the
 * credit count locally because the winner identity is broadcast by the
 * arbitration itself — the same observation that makes the RR priority
 * bit implementable. The arbitration word is
 *
 *     (claim << (idBits + 1)) | (rr_bit << idBits) | id
 *
 * so a claiming holder outranks everyone, and otherwise the ordinary
 * RR implementation-1 scan order applies.
 *
 * Note the weighted schedule intentionally trades the paper's N-1
 * bypass bound for throughput proportionality: an agent with weight w
 * may bypass each waiting agent w times per turn. Audit such runs with
 * the auditor's bypass bound sized to the weight sum, not the RR
 * default.
 */

#ifndef BUSARB_CORE_WEIGHTED_ROUND_ROBIN_HH
#define BUSARB_CORE_WEIGHTED_ROUND_ROBIN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bus/contention.hh"
#include "bus/protocol.hh"
#include "core/pending_requests.hh"

namespace busarb {

/** Configuration of the weighted round-robin protocol. */
struct WrrConfig
{
    /**
     * Per-agent burst weights, all >= 1. An empty vector means weight 1
     * for every agent; a single element is broadcast to all agents;
     * otherwise the size must equal the agent count (checked at
     * reset).
     */
    std::vector<int> weights;
};

/**
 * Distributed weighted round-robin protocol (RR implementation 1 plus
 * a claim line carrying burst credits).
 */
class WeightedRoundRobinProtocol : public ArbitrationProtocol
{
  public:
    explicit WeightedRoundRobinProtocol(const WrrConfig &config = {});

    void reset(int num_agents) override;
    void requestPosted(const Request &req) override;
    bool wantsPass() const override;
    void beginPass(Tick now) override;
    PassResult completePass(Tick now) override;
    void tenureStarted(const Request &req, Tick now) override;
    std::string name() const override;
    int settleRoundsForPass() const override;

    int
    arbitrationLineCount() const override
    {
        // Identity bits + the RR priority bit + the claim line.
        return idBits_ + 2;
    }

    /** @return The recorded identity of the most recent winner. */
    AgentId recordedWinner() const { return recordedWinner_; }

    /** @return Burst credits the recorded winner still holds. */
    int credits() const { return credits_; }

    /** @return The effective weight of `agent` (after broadcast). */
    int weightOf(AgentId agent) const;

  private:
    WrrConfig config_;
    int numAgents_ = 0;
    int idBits_ = 0;
    AgentId recordedWinner_ = 0; // N+1 initially: everyone is "below"
    int credits_ = 0;
    PendingRequests pending_;
    bool passOpen_ = false;

    struct FrozenCompetitor
    {
        AgentId agent;
        std::uint64_t word;
        std::uint64_t seq;
    };
    std::vector<FrozenCompetitor> frozen_;

    /** Build the arbitration word agent `agent` applies. */
    std::uint64_t wordFor(AgentId agent) const;
};

} // namespace busarb

#endif // BUSARB_CORE_WEIGHTED_ROUND_ROBIN_HH
