/**
 * @file
 * Competitor-list helpers for the settle tests.
 *
 * busarb holds a pass as an ArbitrationPass; tests state their passes
 * as lists of (agent, word) competitors. loadPass() puts such a list
 * into a pass, and the per-agent settle loop — the Section 2.1
 * remove/re-apply process simulated one competitor at a time, exactly
 * as the rule is stated — is the oracle the word-parallel pass is held
 * to.
 */

#ifndef BUSARB_TESTS_SUPPORT_SETTLE_ORACLE_HH
#define BUSARB_TESTS_SUPPORT_SETTLE_ORACLE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "bus/arbitration_pass.hh"
#include "sim/logging.hh"

namespace busarb::test {

/** A competitor in one arbitration: an agent and its composite word. */
struct Competitor
{
    AgentId agent = kNoAgent;

    /** The value the agent drives onto the arbitration lines. */
    std::uint64_t word = 0;
};

/**
 * @return A pass on `num_lines` lines, all driven by the words (no
 *         identity lines), in which each competitor drives its word.
 *         A word that is 0 or does not fit, a missing agent, or an
 *         agent competing twice panics.
 */
inline ArbitrationPass
loadPass(int num_lines, const std::vector<Competitor> &competitors)
{
    AgentId max_agent = 1;
    for (const auto &c : competitors) {
        BUSARB_ASSERT(c.agent != kNoAgent, "competitor without an agent");
        max_agent = std::max(max_agent, c.agent);
    }
    ArbitrationPass pass;
    pass.reset(max_agent, num_lines, 0); // checks the line count
    for (const auto &c : competitors) {
        BUSARB_ASSERT(c.word >> num_lines == 0, "word ", c.word,
                      " does not fit in ", num_lines, " lines");
        BUSARB_ASSERT(c.word != 0,
                      "agent ", c.agent, " applied the reserved word 0");
        BUSARB_ASSERT(!pass.competes(c.agent), "agent ", c.agent,
                      " competes twice");
        pass.addCompetitor(c.agent);
        for (std::uint64_t bits = c.word; bits != 0; bits &= bits - 1)
            pass.drive(std::countr_zero(bits), c.agent);
    }
    return pass;
}

/**
 * @return The word an agent with `identity` applies when the lines
 *         carry `lines`: for each line carrying 1 where the agent
 *         applies 0, the agent removes the bits below it, so it keeps
 *         only the bits above its highest such conflict.
 */
inline std::uint64_t
oracleAppliedWord(std::uint64_t identity, std::uint64_t lines)
{
    const std::uint64_t conflicts = lines & ~identity;
    if (conflicts == 0)
        return identity;
    const int top = 63 - std::countl_zero(conflicts);
    return identity & ~((2ULL << top) - 1ULL);
}

/**
 * Settle `competitors` on `num_lines` lines in synchronous rounds: all
 * agents observe the OR of the previous round, then update together.
 *
 * @return Settled word, winner and round count (all zero when empty).
 */
inline SettleResult
oracleSettle(int num_lines, const std::vector<Competitor> &competitors)
{
    SettleResult result;
    if (competitors.empty())
        return result;
    std::vector<std::uint64_t> applied;
    for (const auto &c : competitors)
        applied.push_back(c.word);
    int rounds = 0;
    while (true) {
        std::uint64_t lines = 0;
        for (std::uint64_t w : applied)
            lines |= w;
        bool changed = false;
        for (std::size_t i = 0; i < competitors.size(); ++i) {
            const std::uint64_t next =
                oracleAppliedWord(competitors[i].word, lines);
            if (next != applied[i]) {
                applied[i] = next;
                changed = true;
            }
        }
        if (!changed) {
            result.settledWord = lines;
            break;
        }
        ++rounds;
        BUSARB_ASSERT(rounds <= 2 * num_lines + 2,
                      "oracle settle failed to converge");
    }
    result.rounds = rounds;
    for (const auto &c : competitors) {
        if (c.word == result.settledWord)
            result.winner = c.agent;
    }
    return result;
}

} // namespace busarb::test

#endif // BUSARB_TESTS_SUPPORT_SETTLE_ORACLE_HH
