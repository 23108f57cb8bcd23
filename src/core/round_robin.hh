/**
 * @file
 * The distributed round-robin arbitration protocol (Section 3.1).
 *
 * Key idea: if agent j won the previous arbitration, true round-robin
 * order scans agents j-1 .. 1 and then N .. j. The parallel contention
 * arbiter's maximum-finding implements exactly this scan if agents with
 * identities below the previous winner are given priority over the rest.
 * All three published implementations of that idea are provided:
 *
 *  1. kPriorityBit    - an extra bus line, treated as the most
 *                       significant bit of the arbitration number; an
 *                       agent asserts it when its static identity is
 *                       smaller than the recorded previous winner.
 *  2. kLowRequestLine - the extra line instead gates who competes: if any
 *                       requester has an identity below the recorded
 *                       winner, only those agents enter the arbitration.
 *  3. kNoExtraLine    - no extra line; only agents below the recorded
 *                       winner compete. A settled value of zero means
 *                       nobody participated: the agents record N+1 and a
 *                       new arbitration starts immediately (one wasted
 *                       arbitration cycle).
 *
 * All three produce identical round-robin schedules; implementation 3
 * occasionally spends an extra arbitration pass, which the bus engine
 * accounts as a retry pass.
 *
 * Priority requests (Section 2.4 / 3.1) are supported in implementation 1:
 * a new most significant bit carries the request's priority class, the
 * round-robin priority bit becomes the second most significant bit, and
 * agents may either apply the round-robin rule within the priority class
 * or always assert the RR bit for priority requests.
 */

#ifndef BUSARB_CORE_ROUND_ROBIN_HH
#define BUSARB_CORE_ROUND_ROBIN_HH

#include <string>

#include "bus/arbitration_pass.hh"
#include "bus/protocol.hh"
#include "core/pending_requests.hh"

namespace busarb {

/** Which published implementation of the RR protocol to model. */
enum class RrImplementation {
    kPriorityBit = 1,
    kLowRequestLine = 2,
    kNoExtraLine = 3,
};

/** Configuration of the round-robin protocol. */
struct RrConfig
{
    RrImplementation impl = RrImplementation::kPriorityBit;

    /** Accept priority requests (implementation 1 only). */
    bool enablePriority = false;

    /**
     * When true, priority requests follow the round-robin rule within the
     * priority class; when false they always assert the RR bit
     * ("ignore the round-robin protocol for priority requests").
     */
    bool rrWithinPriorityClass = true;
};

/**
 * Distributed round-robin protocol over the parallel contention arbiter.
 */
class RoundRobinProtocol : public ArbitrationProtocol
{
  public:
    explicit RoundRobinProtocol(const RrConfig &config = {});

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
        return numLines();
    }

    /** @return The recorded identity of the most recent winner. */
    AgentId recordedWinner() const { return recordedWinner_; }

    /** @return Number of arbitration lines the configuration uses. */
    int numLines() const;

  private:
    RrConfig config_;
    int numAgents_ = 0;
    int idBits_ = 0;
    AgentId recordedWinner_ = 0; // N+1 initially: everyone is "below"
    PendingRequests pending_;
    bool passOpen_ = false;

    /** The frozen competitors and their lines. */
    ArbitrationPass pass_;

    /** @return The line the RR priority bit occupies (impl 1). */
    int rrLine() const { return idBits_; }

    /** @return The priority-class line (impl 1 with priority). */
    int priorityLine() const { return idBits_ + 1; }
};

} // namespace busarb

#endif // BUSARB_CORE_ROUND_ROBIN_HH
