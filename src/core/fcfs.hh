/**
 * @file
 * The distributed first-come first-serve arbitration protocol
 * (Section 3.2).
 *
 * Each agent's arbitration identity is the concatenation of two parts:
 * the statically assigned arbitration number (least significant) and a
 * waiting-time counter (most significant). The counter is zero for a new
 * request and is incremented on predefined global events while the
 * request waits, so the maximum-finding arbitration selects the request
 * that has waited longest. Two counter-update strategies are modeled:
 *
 *  - kIncrementOnLose: the counter increments each time the request
 *    loses an arbitration. Requests generated in the same interval
 *    between two successive arbitrations tie and are served in static
 *    identity order (the "simpler but less accurate" strategy whose
 *    practical unfairness Table 4.1 quantifies).
 *  - kIncrLine: an extra a-incr bus line; an arriving request pulses the
 *    line (unless it is already asserted) and every waiting request
 *    increments its counter on each pulse. Only requests arriving within
 *    the same pulse window (a few bus propagation delays) tie.
 *
 * Extensions from the paper, all implemented here:
 *  - multiple outstanding requests per agent (ceil(log2 r) extra counter
 *    bits; all requests still served in FCFS order);
 *  - priority requests as a third, most significant identity part, with
 *    the three counter-update options discussed in the paper
 *    (kAlwaysIncrement with overflow, kMatchedIncrement, kDualIncrLines);
 *  - configurable counter width and overflow policy (saturate or wrap),
 *    for studying "fewer bits in the dynamic portion" (Section 3.2) and
 *    counter overflow under priority traffic.
 */

#ifndef BUSARB_CORE_FCFS_HH
#define BUSARB_CORE_FCFS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bus/arbitration_pass.hh"
#include "bus/protocol.hh"
#include "core/pending_requests.hh"
#include "core/wait_counters.hh"

namespace busarb {

/** Counter-update strategy (Section 3.2). */
enum class FcfsStrategy {
    kIncrementOnLose = 1,
    kIncrLine = 2,
};

/** Counter-update handling for mixed priority / non-priority traffic. */
enum class PriorityCounting {
    /**
     * Increment regardless of the winning request's class; counters may
     * overflow (the "ignore this problem" option).
     */
    kAlwaysIncrement,
    /**
     * Strategy 1 only: increment a request's counter only when the
     * winner's priority class matches the request's class.
     */
    kMatchedIncrement,
    /**
     * Strategy 2 only: separate a-incr and a-incr-priority lines; a
     * request counts only pulses of its own class.
     */
    kDualIncrLines,
};

/** Configuration of the FCFS protocol. */
struct FcfsConfig
{
    FcfsStrategy strategy = FcfsStrategy::kIncrementOnLose;

    /**
     * Width of the waiting-time counter in bits. 0 selects the paper's
     * default: ceil(log2(N+1)) plus ceil(log2 r) when maxOutstandingHint
     * is r > 1.
     */
    int counterBits = 0;

    OverflowPolicy overflow = OverflowPolicy::kSaturate;

    /**
     * Strategy 2: length of an a-incr pulse, in transaction-time units.
     * Two requests arriving within one pulse window share a counter
     * value. Default 0.01 models "two to four end-to-end bus propagation
     * delays" against a several-hundred-nanosecond transaction.
     */
    double incrWindow = 0.01;

    /** Accept priority requests. */
    bool enablePriority = false;

    PriorityCounting priorityCounting = PriorityCounting::kMatchedIncrement;

    /**
     * Expected maximum outstanding requests per agent (r); only used to
     * size the default counter width.
     */
    int maxOutstandingHint = 1;
};

/**
 * Distributed FCFS protocol over the parallel contention arbiter.
 */
class FcfsProtocol : public ArbitrationProtocol
{
  public:
    explicit FcfsProtocol(const FcfsConfig &config = {});

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

    /** @return Effective counter width in bits. */
    int counterBits() const { return counterBits_; }

    /** @return Total arbitration lines used (priority + counter + id). */
    int numLines() const;

    /** @return Times a counter hit its width limit (overflow events). */
    std::uint64_t overflowEvents() const { return overflowEvents_; }

    /**
     * @return Number of requests that arrived sharing a pulse window /
     *         arbitration interval with an earlier request (potential
     *         FCFS-order violations resolved by static identity).
     */
    std::uint64_t tiedArrivals() const { return tiedArrivals_; }

  private:
    FcfsConfig config_;
    int numAgents_ = 0;
    int idBits_ = 0;
    int counterBits_ = 0;
    Tick windowTicks_ = 0;
    PendingRequests pending_;
    bool passOpen_ = false;
    std::uint64_t overflowEvents_ = 0;
    std::uint64_t tiedArrivals_ = 0;
    std::uint64_t arrivalsSinceLastArb_ = 0;

    /** Pulse stream state for strategy 2 (index 1 used for the separate
     *  priority line under kDualIncrLines; otherwise only index 0). */
    struct PulseStream
    {
        Tick lastPulse = -1;
        bool anyPulse = false;
    };
    std::array<PulseStream, 2> streams_;

    /** True once an a-incr pulse lands while a pass is open. */
    bool pulsedInPass_ = false;

    /** The counter of each agent's oldest pending request. */
    WaitCounters counters_;

    /**
     * The frozen competitors and their lines: identity, the counter on
     * lines [idBits, idBits + counterBits), the priority class above.
     */
    ArbitrationPass pass_;

    /** Sequence number of the last request posted. */
    std::uint64_t lastSeq_ = 0;

    /**
     * lastSeq_ when the pass began: a request is in the pass iff its
     * seq is at most this.
     */
    std::uint64_t passSeq_ = 0;

    /**
     * Competitors that present a request behind their oldest (packed
     * agent mask), and the seq each presents (index by agent id).
     */
    std::vector<std::uint64_t> patched_;
    std::vector<std::uint64_t> presentedSeq_;

    /** @return True iff each priority class has its own a-incr line. */
    bool dualStreams() const;

    /** @return Index of the pulse stream a request of `priority` uses. */
    int streamIndex(bool priority) const;

    /** @return Word w of the agents whose oldest is of class `priority`. */
    std::uint64_t
    classWord(std::size_t w, bool priority) const
    {
        const std::uint64_t p = pending_.priorityMaskWord(w);
        return priority ? p : ~p;
    }

    /** @return The arbitration word of `req` with counter `counter`. */
    std::uint64_t wordFor(const Request &req, std::uint64_t counter) const;

    /** One more counted event for `e`, a request behind its oldest. */
    void countEvent(PendingEntry &e);

    /** An a-incr pulse on `stream`: +1 on each of its waiting requests. */
    void countPulse(int stream);

    /** @return The entry `agent` presents: its maximum-word request. */
    const PendingEntry &competingEntry(AgentId agent);

    /** Write `e`'s counter and class onto `agent`'s dynamic lines. */
    void presentEntry(AgentId agent, const PendingEntry &e);

    /** Copy the counter planes onto the counter lines, then re-present
     *  the patched competitors. */
    void driveCounters();
};

} // namespace busarb

#endif // BUSARB_CORE_FCFS_HH
