#include "support/async_contention.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <queue>

#include "sim/logging.hh"

namespace busarb {

namespace {

/**
 * The Section 2.1 reaction: the word an agent drives when the lines
 * (excluding its own contribution, which can never conflict with its
 * own identity) carry `others`.
 */
std::uint64_t
reactionWord(std::uint64_t identity, std::uint64_t others)
{
    const std::uint64_t conflicts = others & ~identity;
    if (conflicts == 0)
        return identity;
    const int top = 63 - std::countl_zero(conflicts);
    const std::uint64_t keep_mask = ~((2ULL << top) - 1ULL);
    return identity & keep_mask;
}

} // namespace

AsyncSettleModel::AsyncSettleModel(int num_lines)
    : numLines_(num_lines)
{
    BUSARB_ASSERT(num_lines >= 1 && num_lines <= 63,
                  "line count out of range: ", num_lines);
}

AsyncSettleResult
AsyncSettleModel::settle(
    const std::vector<PlacedCompetitor> &competitors) const
{
    AsyncSettleResult result;
    if (competitors.empty())
        return result;

    const std::uint64_t limit =
        (numLines_ >= 63) ? ~0ULL : ((1ULL << numLines_) - 1ULL);
    const std::size_t n = competitors.size();
    for (const auto &c : competitors) {
        BUSARB_ASSERT(c.word != 0 && c.word <= limit,
                      "bad word from agent ", c.agent);
        BUSARB_ASSERT(c.position >= 0.0 && c.position <= 1.0,
                      "position out of [0, 1] for agent ", c.agent);
    }

    // Per-driver output history: (time, word) steps, times increasing.
    std::vector<std::vector<std::pair<double, std::uint64_t>>> history(n);
    for (std::size_t i = 0; i < n; ++i)
        history[i].emplace_back(0.0, competitors[i].word);

    const auto output_at = [&](std::size_t i, double t) {
        // Latest step at or before t; before 0 the driver floats.
        const auto &h = history[i];
        std::uint64_t word = 0;
        for (const auto &[when, value] : h) {
            if (when <= t + 1e-12)
                word = value;
            else
                break;
        }
        return word;
    };

    // Event queue: re-evaluation of agent j at time t.
    using Event = std::pair<double, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    // Initial applications at t = 0 trigger evaluations at every agent
    // as each signal arrives.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            queue.emplace(std::abs(competitors[i].position -
                                   competitors[j].position),
                          j);
        }
        queue.emplace(0.0, i);
    }

    int transitions = 0;
    double last_change = 0.0;
    int guard = 0;
    while (!queue.empty()) {
        const auto [t, j] = queue.top();
        queue.pop();
        BUSARB_ASSERT(++guard < 100000, "async settle failed to converge");
        // What agent j currently sees from every other driver.
        std::uint64_t others = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (i == j)
                continue;
            const double d = std::abs(competitors[i].position -
                                      competitors[j].position);
            others |= output_at(i, t - d);
        }
        const std::uint64_t next =
            reactionWord(competitors[j].word, others);
        if (next == history[j].back().second)
            continue;
        history[j].emplace_back(t, next);
        ++transitions;
        last_change = std::max(last_change, t);
        // The transition propagates to every other agent.
        for (std::size_t i = 0; i < n; ++i) {
            if (i == j)
                continue;
            queue.emplace(t + std::abs(competitors[i].position -
                                       competitors[j].position),
                          i);
        }
    }

    std::uint64_t lines = 0;
    for (std::size_t i = 0; i < n; ++i)
        lines |= history[i].back().second;
    result.settledWord = lines;
    result.settleTime = last_change;
    result.transitions = transitions;
    for (const auto &c : competitors) {
        if (c.word == result.settledWord) {
            BUSARB_ASSERT(result.winner == kNoAgent,
                          "two agents settled on the same word");
            result.winner = c.agent;
        }
    }
    BUSARB_ASSERT(result.winner != kNoAgent,
                  "settled word matches no competitor");
    return result;
}

std::vector<PlacedCompetitor>
AsyncSettleModel::worstCasePlacement(int k)
{
    BUSARB_ASSERT(k >= 2 && k % 2 == 0, "need an even k >= 2, got ", k);
    // Alternating-bit identities at opposite ends of the bus: the
    // eventual winner (1010...) sits at one end; the runner-up
    // (0101...) at the other. The winner transiently removes its lower
    // bits when the runner-up's interleaved bits arrive, and re-applies
    // them only after the runner-up's removal has crossed the whole bus
    // — the remove/re-apply round trip Taub's worst case is built from.
    std::vector<PlacedCompetitor> competitors;
    std::uint64_t alt_hi = 0;
    std::uint64_t alt_lo = 0;
    for (int b = k - 1; b >= 0; --b) {
        if ((k - 1 - b) % 2 == 0)
            alt_hi |= 1ULL << b;
        else
            alt_lo |= 1ULL << b;
    }
    competitors.push_back(PlacedCompetitor{1, alt_hi, 0.0});
    competitors.push_back(PlacedCompetitor{2, alt_lo, 1.0});
    return competitors;
}

} // namespace busarb
