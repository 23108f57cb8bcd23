#include "bus/arbitration_pass.hh"

#include <algorithm>
#include <bit>

namespace busarb {

int
linesForAgents(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    int k = 0;
    while ((1 << k) < num_agents + 1)
        ++k;
    return k;
}

void
ArbitrationPass::reset(int num_agents, int num_lines, int identity_lines)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    BUSARB_ASSERT(num_lines >= 1 && num_lines <= 63,
                  "line count out of range: ", num_lines);
    BUSARB_ASSERT(identity_lines >= 0 && identity_lines <= num_lines,
                  "identity lines out of range: ", identity_lines);
    BUSARB_ASSERT(identity_lines == 0 ||
                      identity_lines >= linesForAgents(num_agents),
                  identity_lines, " lines cannot carry ", num_agents,
                  " identities");
    numAgents_ = num_agents;
    numLines_ = num_lines;
    identityLines_ = identity_lines;
    numWords_ = (static_cast<std::size_t>(num_agents) + 1 + 63) / 64;
    competitors_.assign(numWords_, 0);
    lines_.assign(static_cast<std::size_t>(num_lines) * numWords_, 0);
    scratch_.assign(2 * numWords_, 0);
    for (AgentId a = 1; a <= num_agents; ++a) {
        const auto bit = static_cast<std::size_t>(a);
        for (int j = 0; j < identity_lines; ++j) {
            if (((static_cast<unsigned>(a) >> j) & 1U) != 0) {
                lines_[static_cast<std::size_t>(j) * numWords_ +
                       (bit >> 6)] |= 1ULL << (bit & 63);
            }
        }
    }
}

void
ArbitrationPass::clear()
{
    std::fill(competitors_.begin(), competitors_.end(), 0);
    std::fill(lines_.begin() +
                  static_cast<std::ptrdiff_t>(
                      static_cast<std::size_t>(identityLines_) * numWords_),
              lines_.end(), 0);
}

bool
ArbitrationPass::empty() const
{
    for (std::uint64_t c : competitors_) {
        if (c != 0)
            return false;
    }
    return true;
}

namespace {

/** @return The single agent set in `mask`, or kNoAgent when empty. */
template <std::size_t W>
AgentId
soleAgent(const std::uint64_t *mask, std::size_t words, const char *what)
{
    AgentId found = kNoAgent;
    for (std::size_t w = 0; w < (W != 0 ? W : words); ++w) {
        if (mask[w] == 0)
            continue;
        // One bit set: clearing the lowest leaves nothing (a nonzero
        // word; std::popcount is a library call without -mpopcnt).
        BUSARB_ASSERT(found == kNoAgent && (mask[w] & (mask[w] - 1)) == 0,
                      what);
        found = static_cast<AgentId>(w * 64 + std::countr_zero(mask[w]));
    }
    return found;
}

} // namespace

template <std::size_t W>
AgentId
ArbitrationPass::winnerWords() const
{
    // W != 0 fixes the word count at compile time, so the masks live in
    // registers; W == 0 handles any agent count through the scratch.
    const std::size_t nw = W != 0 ? W : numWords_;
    std::uint64_t local[W != 0 ? W : 1];
    std::uint64_t *alive = W != 0 ? local : scratch_.data();
    std::copy_n(competitors_.data(), nw, alive);
    for (int j = numLines_ - 1; j >= 0; --j) {
        const std::uint64_t *l = line(j);
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < nw; ++w)
            any |= alive[w] & l[w];
        if (any == 0)
            continue; // nobody alive drives line j: it reads 0
        for (std::size_t w = 0; w < nw; ++w)
            alive[w] &= l[w];
    }
    return soleAgent<W>(alive, nw, "duplicate arbitration word");
}

AgentId
ArbitrationPass::winner() const
{
    if (empty())
        return kNoAgent;
    switch (numWords_) {
      case 1:
        return winnerWords<1>();
      case 2:
        return winnerWords<2>();
      default:
        return winnerWords<0>();
    }
}

template <std::size_t W>
SettleResult
ArbitrationPass::settleWords() const
{
    // The closed form of the round-by-round process (docs/PROTOCOLS.md
    // §2.1). With M the maximum word and P_j the competitors that agree
    // with M on every line at or above j, the even rounds read M plus
    // the stray lines on which M reads 0 but some agent of P_lambda
    // drives 1, and the odd rounds read M with every line at or below
    // the highest stray cleared, which becomes the next lambda. One
    // top-down walk yields all of it: `alive` is the winner walk's P_j
    // and `reapplying` is P_lambda, the agents that apply their whole
    // word again in the next even round.
    const std::size_t nw = W != 0 ? W : numWords_;
    std::uint64_t local[W != 0 ? 2 * W : 1];
    std::uint64_t *alive = W != 0 ? local : scratch_.data();
    std::uint64_t *reapplying = alive + nw;
    std::copy_n(competitors_.data(), nw, alive);
    std::copy_n(competitors_.data(), nw, reapplying);
    std::uint64_t settled = 0;
    int strays = 0;
    int lambda = numLines_;
    // An agent of P_lambda drives a line below where it leaves M.
    std::uint64_t extra = 0;
    for (int j = numLines_ - 1; j >= 0; --j) {
        const std::uint64_t *l = line(j);
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < nw; ++w)
            any |= alive[w] & l[w];
        const std::uint64_t one = static_cast<std::uint64_t>(any != 0);
        settled |= one << j;
        const std::uint64_t reads_zero = one - 1;
        std::uint64_t left = 0;
        for (std::size_t w = 0; w < nw; ++w) {
            alive[w] &= l[w] | reads_zero;
            left |= reapplying[w] & ~alive[w] & l[w];
        }
        // An agent of P_lambda that left M above j drives line j: a
        // stray where M reads 0, a re-applied low bit where it reads 1.
        const std::uint64_t hit = static_cast<std::uint64_t>(left != 0);
        const std::uint64_t stray = hit & ~one;
        const std::uint64_t take = 0 - stray;
        for (std::size_t w = 0; w < nw; ++w)
            reapplying[w] = (alive[w] & take) | (reapplying[w] & ~take);
        strays += static_cast<int>(stray);
        lambda = stray != 0 ? j : lambda;
        extra = (extra | hit) & ~stray;
    }

    // The lines first read M in round t = 2 * strays, or one round
    // earlier when M has no 1 at or below the last lambda. After an even
    // t the agents of P_lambda still drop their low bits once more.
    const bool odd =
        strays > 0 && (settled & ((2ULL << lambda) - 1ULL)) == 0;
    SettleResult result;
    result.settledWord = settled;
    result.rounds = 2 * strays - static_cast<int>(odd) +
                    static_cast<int>(extra);
    BUSARB_ASSERT(result.rounds <= 2 * numLines_ + 1,
                  "settle failed to converge");
    result.winner =
        soleAgent<W>(alive, nw, "two agents settled on the same word");
    BUSARB_ASSERT(result.winner != kNoAgent,
                  "settled word matches no competitor");
    return result;
}

SettleResult
ArbitrationPass::settle() const
{
    if (empty())
        return SettleResult{};
    switch (numWords_) {
      case 1:
        return settleWords<1>();
      case 2:
        return settleWords<2>();
      default:
        return settleWords<0>();
    }
}

} // namespace busarb
