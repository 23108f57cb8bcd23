/**
 * @file
 * Fundamental time and identity types for the busarb simulation kernel.
 *
 * The simulator uses a discrete integer clock. One bus transaction time
 * (the paper's unit of time, Section 4.1) is kTicksPerUnit ticks, so the
 * 0.5-unit arbitration overhead and the deterministic "n - 0.5" worst-case
 * inter-request times of Table 4.5 are represented exactly.
 */

#ifndef BUSARB_SIM_TYPES_HH
#define BUSARB_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace busarb {

/** Simulated time, in ticks. Signed so durations can be subtracted. */
using Tick = std::int64_t;

/** Number of ticks in one bus transaction time (the unit of time). */
constexpr Tick kTicksPerUnit = 1'000'000;

/** A tick value larger than any reachable simulation time. */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/**
 * Convert a duration expressed in bus-transaction units to ticks.
 *
 * Rounds to the nearest tick; at one-millionth of a transaction time the
 * rounding error is far below anything observable in the output metrics.
 *
 * @param units Duration in transaction times (may be fractional).
 * @return The duration in ticks, never negative.
 */
constexpr Tick
unitsToTicks(double units)
{
    const double scaled = units * static_cast<double>(kTicksPerUnit);
    const Tick t = static_cast<Tick>(scaled + (scaled >= 0.0 ? 0.5 : -0.5));
    return t > 0 ? t : 0;
}

/**
 * Does unitsToTicks() map `units` into the tick clock? Its cast is
 * defined only below 2^63 ticks, so a larger, negative or non-finite
 * duration from outside the program must be refused before conversion.
 *
 * @param units Duration in transaction times.
 * @return True for a finite duration >= 0 that converts without overflow.
 */
constexpr bool
fitsTickClock(double units)
{
    return units >= 0.0 &&
           units * static_cast<double>(kTicksPerUnit) + 0.5 < 0x1p63;
}

/**
 * Convert ticks back to bus-transaction units.
 *
 * @param ticks Duration in ticks.
 * @return Duration in transaction times.
 */
constexpr double
ticksToUnits(Tick ticks)
{
    return static_cast<double>(ticks) / static_cast<double>(kTicksPerUnit);
}

/**
 * Identity of a bus agent.
 *
 * Agents are numbered 1..N as in the paper (Section 2.1: "No agent is
 * assigned the identity 0"), because an all-zero arbitration word must be
 * distinguishable from "no agent competed" on the wired-OR lines.
 */
using AgentId = int;

/** Sentinel meaning "no agent" (e.g. an arbitration nobody entered). */
constexpr AgentId kNoAgent = 0;

} // namespace busarb

#endif // BUSARB_SIM_TYPES_HH
