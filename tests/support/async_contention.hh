/**
 * @file
 * Asynchronous, placement-aware model of the parallel contention
 * arbiter.
 *
 * ArbitrationPass::settle() (arbitration_pass.hh) settles in synchronous
 * rounds (every agent re-evaluates once per end-to-end propagation). Real
 * wired-OR arbitration is asynchronous: each agent sits at a physical
 * position along the bus, sees every other driver's transitions after a
 * distance-proportional delay, and reacts immediately. Taub's theorem
 * [Taub84] says the lines settle within k/2 end-to-end propagation
 * delays for k-bit identities, with the worst case achieved by a
 * particular physical assignment of identities along the bus.
 *
 * This module simulates exactly that: a tiny nested discrete-event
 * simulation of per-agent line views, driven by pairwise propagation
 * delays. It exists to validate the arbiter at the signal level (and
 * Taub's bound empirically); the protocol-level simulations use the
 * cheaper synchronous model.
 */

#ifndef BUSARB_TESTS_SUPPORT_ASYNC_CONTENTION_HH
#define BUSARB_TESTS_SUPPORT_ASYNC_CONTENTION_HH

#include <cstdint>
#include <vector>

#include "bus/arbitration_pass.hh"

namespace busarb {

/** A competitor with a physical position on the bus. */
struct PlacedCompetitor
{
    AgentId agent = kNoAgent;
    std::uint64_t word = 0;

    /** Position along the bus, in [0, 1] (end-to-end = 1). */
    double position = 0.0;
};

/** Outcome of the asynchronous settle simulation. */
struct AsyncSettleResult
{
    /** The steady-state wired-OR value (the maximum word). */
    std::uint64_t settledWord = 0;

    /** The winning agent (kNoAgent if nobody competed). */
    AgentId winner = kNoAgent;

    /**
     * Time until the last line transition anywhere on the bus, in
     * end-to-end propagation delays. Taub: <= k/2 (plus the initial
     * application transient).
     */
    double settleTime = 0.0;

    /** Total line transitions driven during the settle process. */
    int transitions = 0;
};

/**
 * Asynchronous settle simulation.
 */
class AsyncSettleModel
{
  public:
    /**
     * @param num_lines Arbitration line count k, in [1, 63].
     */
    explicit AsyncSettleModel(int num_lines);

    /** @return The line count k. */
    int numLines() const { return numLines_; }

    /**
     * Run the settle process.
     *
     * At t = 0 every competitor applies its full word. Each agent
     * continuously observes, for every line, the wired-OR of every
     * driver's output delayed by their pairwise distance, and re-drives
     * its own outputs according to the Section 2.1 rule (remove bits
     * below the highest conflicting line; re-apply when the conflict
     * clears). Reaction time at the agent is zero; all latency is wire
     * propagation.
     *
     * @param competitors Agents with words and positions in [0, 1].
     * @return Settled value, winner, and the exact settle time.
     */
    AsyncSettleResult
    settle(const std::vector<PlacedCompetitor> &competitors) const;

    /**
     * The worst-case identity placement Taub's proof uses: identities
     * chosen and placed so each conflict resolution must cross the
     * whole bus alternately.
     *
     * @param k Line count; must be even and >= 2.
     * @return Competitors (k/2 + 1 of them) realizing the slow case.
     */
    static std::vector<PlacedCompetitor> worstCasePlacement(int k);

  private:
    int numLines_;
};

} // namespace busarb

#endif // BUSARB_TESTS_SUPPORT_ASYNC_CONTENTION_HH
