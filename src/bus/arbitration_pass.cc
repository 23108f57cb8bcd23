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
    alive_.assign(numWords_, 0);
    applied_.assign(lines_.size(), 0);
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
        BUSARB_ASSERT(found == kNoAgent && std::popcount(mask[w]) == 1,
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
    std::uint64_t *alive = W != 0 ? local : alive_.data();
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
    const std::size_t nw = W != 0 ? W : numWords_;

    // Every competitor initially applies its full word: the applied set
    // of line j is the competitors driving it.
    std::uint64_t lines = 0;
    for (int j = 0; j < numLines_; ++j) {
        const std::uint64_t *l = line(j);
        std::uint64_t *a = &applied_[static_cast<std::size_t>(j) * nw];
        std::uint64_t any = 0;
        for (std::size_t w = 0; w < nw; ++w) {
            a[w] = competitors_[w] & l[w];
            any |= a[w];
        }
        if (any != 0)
            lines |= 1ULL << j;
    }

    // Synchronous rounds: every agent observes the lines of the previous
    // round, then updates. Walking the lines top-down, an agent keeps
    // applying while it has met no conflict (a line reading 1 that it
    // drives 0) above the current line; the applied sets of all lines
    // are the whole state, so an unchanged set on every line is the
    // fixed point.
    std::uint64_t local[W != 0 ? W : 1];
    std::uint64_t *alive = W != 0 ? local : alive_.data();
    int rounds = 0;
    while (true) {
        std::copy_n(competitors_.data(), nw, alive);
        std::uint64_t next = 0;
        std::uint64_t changed = 0;
        for (int j = numLines_ - 1; j >= 0; --j) {
            const std::uint64_t *l = line(j);
            std::uint64_t *a = &applied_[static_cast<std::size_t>(j) * nw];
            std::uint64_t any = 0;
            for (std::size_t w = 0; w < nw; ++w) {
                const std::uint64_t now_applied = alive[w] & l[w];
                changed |= now_applied ^ a[w];
                a[w] = now_applied;
                any |= now_applied;
            }
            next |= static_cast<std::uint64_t>(any != 0) << j;
            // A line reading 1 drops the alive agents that drive it 0.
            const std::uint64_t reads_one = 0 - ((lines >> j) & 1ULL);
            for (std::size_t w = 0; w < nw; ++w)
                alive[w] &= l[w] | ~reads_one;
        }
        if (changed == 0)
            break;
        ++rounds;
        BUSARB_ASSERT(rounds <= 2 * numLines_ + 2,
                      "settle failed to converge");
        lines = next;
    }

    // At the fixed point the agents still alive below the lowest line
    // are exactly those whose word equals the settled lines.
    SettleResult result;
    result.settledWord = lines;
    result.rounds = rounds;
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
