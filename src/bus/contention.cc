#include "bus/contention.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace busarb {

ContentionArbiter::ContentionArbiter(int num_lines) : numLines_(num_lines)
{
    BUSARB_ASSERT(num_lines >= 1 && num_lines <= 63,
                  "line count out of range: ", num_lines);
}

SettleResult
ContentionArbiter::settle(const std::vector<Competitor> &competitors) const
{
    if (competitors.empty())
        return SettleResult{};

    const std::uint64_t word_limit = (1ULL << numLines_) - 1ULL;
    AgentId max_agent = kNoAgent;
    for (const auto &c : competitors) {
        BUSARB_ASSERT(c.word <= word_limit, "word ", c.word,
                      " does not fit in ", numLines_, " lines");
        BUSARB_ASSERT(c.word != 0,
                      "agent ", c.agent, " applied the reserved word 0");
        BUSARB_ASSERT(c.agent != kNoAgent, "competitor without an agent");
        max_agent = std::max(max_agent, c.agent);
    }
    if (max_agent > passAgents_) {
        pass_.reset(max_agent, numLines_, 0);
        passAgents_ = max_agent;
    } else {
        pass_.clear();
    }
    for (const auto &c : competitors) {
        BUSARB_ASSERT(!pass_.competes(c.agent), "agent ", c.agent,
                      " competes twice");
        pass_.addCompetitor(c.agent);
        for (std::uint64_t bits = c.word; bits != 0; bits &= bits - 1)
            pass_.drive(std::countr_zero(bits), c.agent);
    }
    return pass_.settle();
}

AgentId
selectMax(const std::vector<Competitor> &competitors)
{
    AgentId winner = kNoAgent;
    std::uint64_t best = 0;
    bool any = false;
    for (const auto &c : competitors) {
        BUSARB_ASSERT(c.agent != kNoAgent, "competitor without an agent");
        if (!any || c.word > best) {
            any = true;
            best = c.word;
            winner = c.agent;
        } else if (c.word == best) {
            BUSARB_PANIC("duplicate arbitration word ", c.word,
                         " from agents ", winner, " and ", c.agent);
        }
    }
    return winner;
}

} // namespace busarb
