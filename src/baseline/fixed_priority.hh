/**
 * @file
 * The basic parallel contention arbiter: fixed-priority service.
 *
 * Section 2.2: "The parallel contention arbiter ... implements fixed
 * priority service, in which an agent's priority is defined by its
 * assigned arbitration number." No fairness mechanism at all; provided as
 * the bottom-line baseline.
 */

#ifndef BUSARB_BASELINE_FIXED_PRIORITY_HH
#define BUSARB_BASELINE_FIXED_PRIORITY_HH

#include <string>

#include "bus/arbitration_pass.hh"
#include "bus/protocol.hh"
#include "core/pending_requests.hh"

namespace busarb {

/**
 * Fixed-priority arbitration: the highest requesting identity always
 * wins. Supports the Section 2.4 priority line (priority requests gain a
 * most significant bit).
 */
class FixedPriorityProtocol : public ArbitrationProtocol
{
  public:
    /** @param enable_priority Accept urgent requests with a priority bit. */
    explicit FixedPriorityProtocol(bool enable_priority = false);

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

  private:
    bool enablePriority_;
    int numAgents_ = 0;
    int idBits_ = 0;
    PendingRequests pending_;
    bool passOpen_ = false;

    /** The frozen competitors; line idBits carries the priority bit. */
    ArbitrationPass pass_;
};

} // namespace busarb

#endif // BUSARB_BASELINE_FIXED_PRIORITY_HH
