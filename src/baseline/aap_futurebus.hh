/**
 * @file
 * Assured access protocol 2: the Futurebus inhibit / fairness-release
 * protocol (Section 2.2).
 *
 * An agent with a request asserts the request line and competes in
 * successive arbitrations until it wins. At the completion of its tenure
 * it marks itself "inhibited" and neither asserts the request line nor
 * competes until a fairness release: an arbitration cycle in which no
 * agent asserts the request line (either nothing is outstanding or every
 * requester is inhibited). A batch therefore starts and ends with a
 * fairness-release cycle; no agent is master twice in a batch, but a
 * request generated mid-batch joins it if its agent has not yet been
 * served in the batch.
 */

#ifndef BUSARB_BASELINE_AAP_FUTUREBUS_HH
#define BUSARB_BASELINE_AAP_FUTUREBUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bus/arbitration_pass.hh"
#include "bus/protocol.hh"
#include "core/pending_requests.hh"

namespace busarb {

/**
 * The Futurebus inhibit-based assured-access protocol.
 */
class FuturebusAapProtocol : public ArbitrationProtocol
{
  public:
    /** @param enable_priority Accept urgent requests (Section 2.4):
     *  priority requests ignore the inhibit protocol, compete in every
     *  arbitration with the priority line asserted, and do not inhibit
     *  their agent. */
    explicit FuturebusAapProtocol(bool enable_priority = false);

    void reset(int num_agents) override;
    void requestPosted(const Request &req) override;
    bool wantsPass() const override;
    void beginPass(Tick now) override;
    PassResult completePass(Tick now) override;
    void tenureStarted(const Request &req, Tick now) override;
    void tenureEnded(const Request &req, Tick now) override;
    std::string name() const override;
    int settleRoundsForPass() const override;

    int
    arbitrationLineCount() const override
    {
        return idBits_ + (enablePriority_ ? 1 : 0);
    }

    /** @return Fairness-release cycles that have occurred. */
    std::uint64_t fairnessReleases() const { return releases_; }

    /** @return True if `agent` is currently inhibited. */
    bool isInhibited(AgentId agent) const;

  private:
    bool enablePriority_ = false;
    int numAgents_ = 0;
    int idBits_ = 0;
    PendingRequests pending_;
    bool passOpen_ = false;
    std::uint64_t releases_ = 0;

    /** Inhibited agents, packed like the request mask. */
    std::vector<std::uint64_t> inhibited_;

    /** The frozen competitors; line idBits carries the priority bit. */
    ArbitrationPass pass_;
};

} // namespace busarb

#endif // BUSARB_BASELINE_AAP_FUTUREBUS_HH
