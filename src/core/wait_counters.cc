#include "core/wait_counters.hh"

#include "sim/logging.hh"

namespace busarb {

void
WaitCounters::reset(int num_agents, int width, OverflowPolicy policy)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    BUSARB_ASSERT(width >= 1 && width <= 63, "counter width out of range: ",
                  width);
    numAgents_ = num_agents;
    width_ = width;
    policy_ = policy;
    max_ = (1ULL << width) - 1ULL;
    numWords_ = (static_cast<std::size_t>(num_agents) + 1 + 63) / 64;
    planes_.assign(static_cast<std::size_t>(width + 1) * numWords_, 0);
}

void
WaitCounters::set(AgentId agent, std::uint64_t raw)
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents_,
                  "agent id out of range: ", agent);
    const auto bit = static_cast<std::size_t>(agent);
    const std::size_t w = bit >> 6;
    const std::uint64_t m = 1ULL << (bit & 63);
    const std::uint64_t v = clip(raw);
    // Bit `width_` of the column is the overflow mark.
    const std::uint64_t column = v | (raw > max_ ? 1ULL << width_ : 0);
    for (int b = 0; b <= width_; ++b) {
        std::uint64_t &p =
            planes_[static_cast<std::size_t>(b) * numWords_ + w];
        p = ((column >> b) & 1ULL) != 0 ? (p | m) : (p & ~m);
    }
}

std::uint64_t
WaitCounters::value(AgentId agent) const
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents_,
                  "agent id out of range: ", agent);
    const auto bit = static_cast<std::size_t>(agent);
    std::uint64_t v = 0;
    for (int b = 0; b < width_; ++b)
        v |= ((plane(b, bit >> 6) >> (bit & 63)) & 1ULL) << b;
    return v;
}

} // namespace busarb
