/**
 * @file
 * The per-agent settle loop: the Section 2.1 remove/re-apply process
 * simulated one competitor at a time, exactly as the rule is stated.
 * busarb settles word-parallel (ArbitrationPass); this direct form is
 * the oracle the differential tests hold it to.
 */

#ifndef BUSARB_TESTS_SUPPORT_SETTLE_ORACLE_HH
#define BUSARB_TESTS_SUPPORT_SETTLE_ORACLE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "bus/contention.hh"
#include "sim/logging.hh"

namespace busarb::test {

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
