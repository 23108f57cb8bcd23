#include "bus/arbitration_pass.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace busarb {

namespace {

/**
 * Transpose an 8x8 bit matrix held one row per byte: bit j of byte i
 * moves to bit i of byte j (Hacker's Delight, transpose8).
 */
std::uint64_t
transpose8x8(std::uint64_t x)
{
    std::uint64_t t = (x ^ (x >> 7)) & 0x00AA00AA00AA00AAULL;
    x ^= t ^ (t << 7);
    t = (x ^ (x >> 14)) & 0x0000CCCC0000CCCCULL;
    x ^= t ^ (t << 14);
    t = (x ^ (x >> 28)) & 0x00000000F0F0F0F0ULL;
    x ^= t ^ (t << 28);
    return x;
}

} // namespace

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
    fieldLine_ = 0;
    fieldWidth_ = 0;
    fieldPlanes_ = 0;
    fieldBytes_.clear();
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

void
ArbitrationPass::defineField(int first_line, int width)
{
    BUSARB_ASSERT(width >= 1 && width <= 32, "field width out of range: ",
                  width);
    BUSARB_ASSERT(first_line >= identityLines_ &&
                      first_line + width <= numLines_,
                  "field lines [", first_line, ", ", first_line + width,
                  ") out of range");
    fieldLine_ = first_line;
    fieldWidth_ = width;
    fieldPlanes_ = (width + 7) / 8;
    fieldBytes_.assign(static_cast<std::size_t>(fieldPlanes_) * numWords_ *
                           64,
                       0);
}

void
ArbitrationPass::fieldToLines()
{
    BUSARB_ASSERT(fieldWidth_ > 0, "no field defined");
    const std::size_t stride = numWords_ * 64;
    for (int p = 0; p < fieldPlanes_; ++p) {
        const int bits = std::min(8, fieldWidth_ - 8 * p);
        for (std::size_t w = 0; w < numWords_; ++w) {
            // y[c] byte b: value bit 8p + b of agents w*64 + 8c .. + 7.
            const std::uint8_t *bytes =
                &fieldBytes_[static_cast<std::size_t>(p) * stride + w * 64];
            std::uint64_t y[8];
            for (std::size_t c = 0; c < 8; ++c) {
                std::memcpy(&y[c], bytes + c * 8, sizeof y[c]);
                if (y[c] != 0) // chunks past the last agent stay zero
                    y[c] = transpose8x8(y[c]);
            }
            // Byte transpose: afterwards y[b] byte c is y[c] byte b,
            // i.e. y[b] is word w of line fieldLine_ + 8p + b.
            for (std::size_t span = 1; span < 8; span *= 2) {
                const unsigned shift = static_cast<unsigned>(8 * span);
                const std::uint64_t keep =
                    span == 1   ? 0x00FF00FF00FF00FFULL
                    : span == 2 ? 0x0000FFFF0000FFFFULL
                                : 0x00000000FFFFFFFFULL;
                for (std::size_t c = 0; c < 8; ++c) {
                    if ((c & span) != 0)
                        continue;
                    const std::uint64_t t =
                        ((y[c] >> shift) ^ y[c + span]) & keep;
                    y[c + span] ^= t;
                    y[c] ^= t << shift;
                }
            }
            for (int b = 0; b < bits; ++b) {
                lines_[static_cast<std::size_t>(fieldLine_ + 8 * p + b) *
                           numWords_ +
                       w] = y[b];
            }
        }
    }
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
