/**
 * @file
 * The hybrid RR/FCFS protocol sketched in the paper's Section 5:
 * "the round robin protocol might be used only for requests that arrive
 * at the same time, while the FCFS protocol is used for other requests."
 *
 * Requests carry an FCFS waiting-time counter exactly as in FCFS
 * implementation 1 (increment on lose). Requests whose counters tie —
 * i.e. requests that arrived within the same interval between two
 * successive arbitrations — are ordered by the round-robin rule (an RR
 * priority bit relative to the recorded previous winner) instead of by
 * raw static identity, removing the fixed-priority bias among
 * simultaneous arrivals that Table 4.1 measures for plain FCFS.
 *
 * Composite word, most significant first:
 *   [ waiting-time counter | rr bit | static identity ]
 */

#ifndef BUSARB_CORE_HYBRID_HH
#define BUSARB_CORE_HYBRID_HH

#include <cstdint>
#include <string>

#include "bus/arbitration_pass.hh"
#include "bus/protocol.hh"
#include "core/pending_requests.hh"
#include "core/wait_counters.hh"

namespace busarb {

/** Configuration of the hybrid protocol. */
struct HybridConfig
{
    /** Counter width in bits; 0 selects ceil(log2(N+1)). */
    int counterBits = 0;
};

/**
 * FCFS-with-round-robin-tie-break protocol (Section 5 extension).
 */
class HybridProtocol : public ArbitrationProtocol
{
  public:
    explicit HybridProtocol(const HybridConfig &config = {});

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
        return counterBits_ + 1 + idBits_;
    }

    /** @return The recorded identity of the most recent winner. */
    AgentId recordedWinner() const { return recordedWinner_; }

  private:
    HybridConfig config_;
    int numAgents_ = 0;
    int idBits_ = 0;
    int counterBits_ = 0;
    AgentId recordedWinner_ = 0;
    PendingRequests pending_;
    bool passOpen_ = false;

    /** The saturating counter of each agent's oldest pending request. */
    WaitCounters counters_;

    /**
     * The frozen competitors and their lines: identity, the RR bit on
     * line idBits, the counter on the lines above it.
     */
    ArbitrationPass pass_;

    /** Sequence number of the last request posted. */
    std::uint64_t lastSeq_ = 0;

    /**
     * lastSeq_ when the pass began: a request is in the pass iff its
     * seq is at most this.
     */
    std::uint64_t passSeq_ = 0;
};

} // namespace busarb

#endif // BUSARB_CORE_HYBRID_HH
