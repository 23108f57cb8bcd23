/**
 * @file
 * The interface every arbitration protocol implements.
 *
 * The bus engine drives protocols through a small pass-oriented contract
 * that mirrors how the parallel contention arbiter actually operates:
 *
 *  1. Agents post requests at arbitrary times (requestPosted). Posting
 *     models asserting the shared bus-request line.
 *  2. When the engine decides an arbitration pass should run (at the
 *     beginning of a bus tenure when requests are waiting, or when a
 *     request arrives and no pass/decision is outstanding), it calls
 *     beginPass(). The protocol freezes its competitor set: requests
 *     posted after beginPass() cannot join this pass.
 *  3. One arbitration overhead later the engine calls completePass().
 *     The protocol resolves the wired-OR maximum over the frozen
 *     competitors and reports a winner, or asks for an immediate retry
 *     pass (AAP-2's fairness-release cycle, RR implementation 3's wrap
 *     cycle), or reports that nothing competed.
 *  4. tenureStarted() tells the protocol its winner took the bus (the
 *     agent releases the request line); tenureEnded() marks the end of
 *     the transfer.
 */

#ifndef BUSARB_BUS_PROTOCOL_HH
#define BUSARB_BUS_PROTOCOL_HH

#include <string>

#include "bus/request.hh"
#include "sim/types.hh"

namespace busarb {

/** Outcome of one arbitration pass. */
struct PassResult
{
    enum class Kind {
        /** A winner was selected; `winner` is valid. */
        kWinner,
        /**
         * The pass resolved with no competitor (all requesters inhibited
         * or out of the eligible window). The engine starts another pass
         * immediately; protocol state has been updated so the retry can
         * make progress (fairness release, RR wrap).
         */
        kRetry,
        /** No outstanding request exists at all; go idle. */
        kIdle,
    };

    Kind kind = Kind::kIdle;

    /** The request that won the pass (valid when kind == kWinner). */
    Request winner;

    static PassResult
    makeWinner(const Request &req)
    {
        return PassResult{Kind::kWinner, req};
    }

    static PassResult makeRetry() { return PassResult{Kind::kRetry, {}}; }

    static PassResult makeIdle() { return PassResult{Kind::kIdle, {}}; }
};

/**
 * Abstract distributed (or central) bus arbitration protocol.
 *
 * Implementations keep whatever per-agent state the real hardware would
 * hold (recorded winner registers, waiting-time counters, inhibit bits)
 * plus the set of posted requests (the request line and arbitration
 * lines).
 */
class ArbitrationProtocol
{
  public:
    virtual ~ArbitrationProtocol() = default;

    /**
     * Prepare for a run with `num_agents` agents (identities 1..N).
     * Called once before simulation; clears all dynamic state.
     */
    virtual void reset(int num_agents) = 0;

    /** An agent asserts the request line for a new request. */
    virtual void requestPosted(const Request &req) = 0;

    /**
     * @return True if any posted request exists (served or not yet
     *         eligible alike) — i.e. the engine should run a pass.
     */
    virtual bool wantsPass() const = 0;

    /**
     * Freeze the competitor set for a pass starting now.
     *
     * @param now Pass start tick.
     */
    virtual void beginPass(Tick now) = 0;

    /**
     * Resolve the pass begun by the last beginPass().
     *
     * @param now Pass completion tick.
     * @return Winner, retry, or idle.
     */
    virtual PassResult completePass(Tick now) = 0;

    /**
     * The winning agent becomes bus master and releases the request line
     * for the served request.
     *
     * @param req The request being served (as returned by completePass).
     * @param now Tenure start tick.
     */
    virtual void tenureStarted(const Request &req, Tick now) = 0;

    /**
     * The bus transfer for `req` finished.
     *
     * @param req The request that was served.
     * @param now Tenure end tick.
     */
    virtual void
    tenureEnded(const Request &req, Tick now)
    {
        (void)req;
        (void)now;
    }

    /** @return Human-readable protocol name for reports. */
    virtual std::string name() const = 0;

    /**
     * Signal-level cost of the pass begun by the last beginPass(): the
     * number of wired-OR settle rounds (end-to-end bus propagations)
     * the frozen competitor set needs to resolve in the parallel
     * contention arbiter.
     *
     * Distributed protocols compute this by running the bit-level
     * settle model over their frozen pass (ArbitrationPass::settle,
     * bus/arbitration_pass.hh); the bus engine
     * uses it when BusParams::settleTiming is enabled to derive each
     * pass's duration instead of charging a fixed overhead.
     *
     * @return Settle rounds (>= 0), or -1 when the protocol does not
     *         model signal-level arbitration (e.g. the central
     *         reference arbiters) — the engine then falls back to the
     *         fixed overhead.
     */
    virtual int
    settleRoundsForPass() const
    {
        return -1;
    }

    /**
     * Number of wired-OR arbitration lines the protocol drives (static
     * identity bits plus any dynamic fields). Used by the worst-case
     * settle-timing mode to budget ceil(k/2) propagation rounds per
     * arbitration.
     *
     * @return Line count k, or -1 when the protocol does not model
     *         signal-level arbitration.
     */
    virtual int
    arbitrationLineCount() const
    {
        return -1;
    }
};

} // namespace busarb

#endif // BUSARB_BUS_PROTOCOL_HH
