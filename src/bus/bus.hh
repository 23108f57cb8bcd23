/**
 * @file
 * The bus engine: transaction timing and arbitration scheduling.
 *
 * Implements the timing assumptions of Section 4.1:
 *  - bus transaction (service) times are deterministic and define the
 *    unit of time;
 *  - arbitration overhead is a fixed fraction of a transaction time
 *    (0.5 by default);
 *  - arbitration for the next master starts at the beginning of a bus
 *    transaction whenever requests are waiting, so the overhead is
 *    completely overlapped with bus service under load. When the bus is
 *    idle, a pass starts the moment a request arrives and its overhead
 *    is exposed.
 *
 * The engine is protocol-agnostic: all scheduling policy lives behind
 * ArbitrationProtocol.
 */

#ifndef BUSARB_BUS_BUS_HH
#define BUSARB_BUS_BUS_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "bus/protocol.hh"
#include "bus/request.hh"
#include "bus/trace.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace busarb {

/**
 * Receives service notifications from the bus.
 */
class BusObserver
{
  public:
    virtual ~BusObserver() = default;

    /** `req` was granted the bus; its transfer starts now. */
    virtual void onServiceStart(const Request &req, Tick now) = 0;

    /** The transfer for `req` completed now. */
    virtual void onServiceEnd(const Request &req, Tick now) = 0;
};

/** Timing parameters of the bus, in transaction-time units. */
struct BusParams
{
    /** Transfer (service) time of one bus transaction. */
    double transactionTime = 1.0;

    /** Duration of one arbitration pass (fixed-overhead mode). */
    double arbitrationOverhead = 0.5;

    /**
     * When true, pass durations derive from the bit-level parallel
     * contention arbiter instead of the fixed arbitrationOverhead
     * (Section 2.1: selection among 2^k devices takes about k/2
     * end-to-end propagations plus control overhead). Protocols
     * without a signal-level model fall back to arbitrationOverhead.
     */
    bool settleTiming = false;

    /** How the settle cost is charged when settleTiming is true. */
    enum class SettleMode {
        /**
         * Self-timed (asynchronous) bus: each pass lasts
         * (controlRounds + actual settle rounds) * propagationDelay,
         * with the rounds computed from the frozen competitor words.
         */
        kDynamic,
        /**
         * Synchronous bus: every pass is budgeted the worst case,
         * (controlRounds + ceil(k/2)) * propagationDelay, where k is
         * the protocol's arbitration line count — this is where FCFS's
         * wider composite identities cost real time (Section 3.2).
         */
        kWorstCase,
    };
    SettleMode settleMode = SettleMode::kDynamic;

    /** End-to-end bus propagation delay, in transaction times. */
    double propagationDelay = 0.05;

    /** Fixed control rounds per pass (start / grant handshake). */
    int controlRounds = 4;
};

/**
 * A single shared bus with one arbiter and N request-issuing agents.
 */
class Bus
{
  public:
    /**
     * @param queue Event queue driving the simulation. The bus arms its
     *        same-tick slot for pass starts and its two timer slots for
     *        pass and tenure ends, so a queue drives one bus.
     * @param protocol Arbitration protocol (reset() is called here).
     * @param num_agents Number of agents (identities 1..N).
     * @param params Timing parameters.
     */
    Bus(EventQueue &queue, std::unique_ptr<ArbitrationProtocol> protocol,
        int num_agents, const BusParams &params);

    Bus(const Bus &) = delete;
    Bus &operator=(const Bus &) = delete;

    /** Register the observer notified of service starts/ends. */
    void setObserver(BusObserver *observer) { observer_ = observer; }

    /** Attach a tracer receiving every bus-level event (may be null). */
    void setTracer(BusTracer *tracer) { tracer_ = tracer; }

    /**
     * An agent issues a request (asserts the request line).
     *
     * @param agent Issuing agent, 1..N.
     * @param priority True for an urgent request.
     * @return The Request record (carries the issue tick and sequence).
     */
    Request postRequest(AgentId agent, bool priority = false);

    /** @return The arbitration protocol in use. */
    ArbitrationProtocol &protocol() { return *protocol_; }
    const ArbitrationProtocol &protocol() const { return *protocol_; }

    /** @return Number of attached agents. */
    int numAgents() const { return numAgents_; }

    /** @return True while a transfer is in progress. */
    bool busy() const { return busy_; }

    /** @return Total ticks the bus spent transferring data. */
    Tick busyTicks() const { return busyTicks_; }

    /** @return Completed transactions. */
    std::uint64_t completedTransactions() const { return completed_; }

    /** @return Requests posted and not yet fully served. */
    std::uint64_t
    outstandingRequests() const
    {
        return seq_ - completed_;
    }

    /** @return Arbitration passes begun (including retries). */
    std::uint64_t arbitrationPasses() const { return passes_; }

    /** @return Passes that resolved to kRetry (wasted cycles). */
    std::uint64_t retryPasses() const { return retryPasses_; }

    /**
     * @return Ticks of arbitration overhead that delayed a grant (i.e.
     *         were not hidden under a transfer).
     */
    Tick exposedArbitrationTicks() const { return exposedArbTicks_; }

  private:
    // The queue's timer slots the bus arms: one pass and one tenure are
    // in flight at most, so each end has a slot of its own.
    static constexpr std::size_t kPassEndTimer = 0;
    static constexpr std::size_t kTenureEndTimer = 1;
    static_assert(kTenureEndTimer < EventQueue::kTimerSlots);

    EventQueue &queue_;
    std::unique_ptr<ArbitrationProtocol> protocol_;
    BusObserver *observer_ = nullptr;
    BusTracer *tracer_ = nullptr;
    int numAgents_;
    Tick serviceTicks_;
    Tick arbTicks_;
    bool settleTiming_;
    bool worstCaseSettle_;
    Tick propTicks_;
    int controlRounds_;

    bool busy_ = false;          // transfer in progress
    bool passInProgress_ = false;
    bool passStartPending_ = false; // same-tick pass start armed
    bool winnerDecided_ = false; // next master chosen, waiting for the bus
    Request nextMaster_;
    Request current_;            // request being served while busy_
    Tick passStart_ = 0;         // when the in-flight pass began
    Tick lastFreeTick_ = 0;      // when the bus last became idle

    std::uint64_t seq_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t passes_ = 0;
    std::uint64_t retryPasses_ = 0;
    Tick busyTicks_ = 0;
    Tick exposedArbTicks_ = 0;

    /** Arm a pass start if one is due and none is outstanding. */
    void maybeStartPass();

    /** Freeze competitors and launch the arbitration pass (deferred). */
    void startPassNow();

    /** Arbitration pass completes: resolve and act on the result. */
    void passCompleted();

    /** Grant the bus to `req` and start its transfer. */
    void startTenure(const Request &req);

    /** The active transfer finished. */
    void transactionCompleted();
};

} // namespace busarb

#endif // BUSARB_BUS_BUS_HH
