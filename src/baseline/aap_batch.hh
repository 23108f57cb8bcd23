/**
 * @file
 * Assured access protocol 1: the batching protocol adopted by the
 * Fastbus, NuBus, and Multibus II standards (Section 2.2).
 *
 * All requests that arrive at an idle bus assert the request line and
 * form a batch. A batch member competes in every arbitration until it is
 * granted the bus; it releases the request line at the start of its
 * tenure. A request generated while a batch is in progress must wait for
 * the batch to end (request line reads 0) before asserting the line; all
 * requests waiting at that moment form the next batch. Within a batch,
 * agents are served in descending order of their static identities —
 * which is exactly the unfairness the paper's RR/FCFS protocols remove
 * (the highest identity is always served first in its batch).
 */

#ifndef BUSARB_BASELINE_AAP_BATCH_HH
#define BUSARB_BASELINE_AAP_BATCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bus/arbitration_pass.hh"
#include "bus/protocol.hh"
#include "core/pending_requests.hh"

namespace busarb {

/**
 * The Fastbus/NuBus/Multibus II batching assured-access protocol.
 *
 * Priority integration per Section 2.4: agents follow the batching
 * protocol for non-priority requests but ignore it for priority
 * requests, competing in every arbitration with an extra
 * most-significant priority line asserted — so priority requests are
 * always served before any batch member.
 */
class BatchAapProtocol : public ArbitrationProtocol
{
  public:
    /** @param enable_priority Accept urgent requests (Section 2.4). */
    explicit BatchAapProtocol(bool enable_priority = false);

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
        return idBits_ + (enablePriority_ ? 1 : 0);
    }

    /** @return Number of batches formed so far. */
    std::uint64_t batchesFormed() const { return batchesFormed_; }

  private:
    bool enablePriority_ = false;
    int numAgents_ = 0;
    int idBits_ = 0;
    int priorityPending_ = 0;
    PendingRequests pending_;
    bool passOpen_ = false;
    std::uint64_t batchesFormed_ = 0;

    /**
     * In-batch requests per agent (index by agent id). They are always
     * the agent's oldest non-priority requests: a batch takes every
     * waiting non-priority request, and later ones queue behind them.
     */
    std::vector<std::uint32_t> batchCount_;

    /** Requests in the current batch, over all agents. */
    std::size_t batchSize_ = 0;

    /**
     * Tick at which the current batch formed. Requests issued at the
     * same instant see the request line still low (the assertion has
     * not propagated yet) and join the forming batch.
     */
    Tick batchFormedAt_ = -1;

    /** The frozen competitors; line idBits carries the priority bit. */
    ArbitrationPass pass_;

    /** Add `req` to the current batch. */
    void joinBatch(const Request &req);

    /** Move every deferred pending request into a fresh batch. */
    void formNewBatch(Tick now);
};

} // namespace busarb

#endif // BUSARB_BASELINE_AAP_BATCH_HH
