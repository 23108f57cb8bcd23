/**
 * @file
 * A per-request reference model of the waiting-time-counter protocols:
 * FcfsProtocol (Section 3.2) and HybridProtocol (Section 5).
 *
 * Every pending request keeps its own raw counter, and each agent
 * presents the maximum word over its pending requests, compared as
 * integers. The model shares no code with the protocols: no agent masks,
 * no arbitration lines, no bit-sliced counters. Differential tests hold
 * the protocols' winners and counts to it.
 */

#ifndef BUSARB_TESTS_SUPPORT_FCFS_REFERENCE_HH
#define BUSARB_TESTS_SUPPORT_FCFS_REFERENCE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/fcfs.hh"
#include "core/hybrid.hh"

namespace busarb::test {

/**
 * The FCFS or hybrid protocol, one scalar counter per request.
 *
 * Call post() for each request, beginPass() and completePass() around a
 * pass (posts may fall in between), then serve() with the winner.
 */
class FcfsReference
{
  public:
    FcfsReference(const FcfsConfig &config, int num_agents)
        : fcfs_(config), idBits_(bitsFor(num_agents)),
          presented_(static_cast<std::size_t>(num_agents) + 1)
    {
        width_ = config.counterBits;
        if (width_ == 0) {
            width_ = idBits_;
            while ((1 << (width_ - idBits_)) < config.maxOutstandingHint)
                ++width_;
        }
        max_ = (1ULL << width_) - 1;
        window_ = unitsToTicks(config.incrWindow);
    }

    FcfsReference(const HybridConfig &config, int num_agents)
        : hybrid_(true), idBits_(bitsFor(num_agents)),
          recordedWinner_(num_agents + 1),
          presented_(static_cast<std::size_t>(num_agents) + 1)
    {
        width_ = config.counterBits > 0 ? config.counterBits : idBits_;
        max_ = (1ULL << width_) - 1;
    }

    void
    post(const Request &req)
    {
        if (!hybrid_ && fcfs_.strategy == FcfsStrategy::kIncrLine) {
            Stream &s = streams_[streamOf(req)];
            if (!s.pulsed || req.issued - s.last >= window_) {
                s.pulsed = true;
                s.last = req.issued;
                for (Entry &e : pending_) {
                    if (streamOf(e.req) == streamOf(req))
                        bump(e);
                }
            } else {
                ++tied_;
            }
        } else if (!hybrid_) {
            if (arrivals_ > 0)
                ++tied_;
            ++arrivals_;
        }
        pending_.push_back(Entry{req, 0, false});
    }

    void
    beginPass()
    {
        std::fill(presented_.begin(), presented_.end(), kNone);
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            Entry &e = pending_[i];
            e.inPass = true;
            std::size_t &p =
                presented_[static_cast<std::size_t>(e.req.agent)];
            if (p == kNone || word(e) > word(pending_[p]))
                p = i;
        }
    }

    /** @return The winning request (agent kNoAgent if nobody competed). */
    Request
    completePass()
    {
        const Entry *best = nullptr;
        for (std::size_t p : presented_) {
            if (p != kNone &&
                (best == nullptr || word(pending_[p]) > word(*best)))
                best = &pending_[p];
        }
        if (best == nullptr)
            return Request{};
        const Request won = best->req;
        const bool counts_losses =
            hybrid_ || fcfs_.strategy == FcfsStrategy::kIncrementOnLose;
        const bool matched =
            !hybrid_ && fcfs_.enablePriority &&
            fcfs_.priorityCounting == PriorityCounting::kMatchedIncrement;
        for (Entry &e : pending_) {
            if (counts_losses && e.inPass && e.req.seq != won.seq &&
                (!matched || e.req.priority == won.priority)) {
                bump(e);
            }
            e.inPass = false;
        }
        arrivals_ = 0;
        recordedWinner_ = won.agent;
        return won;
    }

    /** Remove a served request. */
    void
    serve(const Request &req)
    {
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->req.seq == req.seq) {
                pending_.erase(it);
                return;
            }
        }
    }

    std::uint64_t overflowEvents() const { return overflows_; }
    std::uint64_t tiedArrivals() const { return tied_; }

  private:
    struct Entry
    {
        Request req;
        std::uint64_t raw;
        bool inPass;
    };

    static constexpr std::size_t kNone = ~std::size_t{0};

    struct Stream
    {
        bool pulsed = false;
        Tick last = 0;
    };

    static int
    bitsFor(int num_agents)
    {
        int k = 0;
        while ((1LL << k) < num_agents + 1LL)
            ++k;
        return k;
    }

    std::size_t
    streamOf(const Request &req) const
    {
        return fcfs_.enablePriority &&
                       fcfs_.priorityCounting ==
                           PriorityCounting::kDualIncrLines &&
                       req.priority
                   ? 1
                   : 0;
    }

    void
    bump(Entry &e)
    {
        ++e.raw;
        if (!hybrid_ && e.raw == max_ + 1)
            ++overflows_;
    }

    std::uint64_t
    word(const Entry &e) const
    {
        const auto id = static_cast<std::uint64_t>(e.req.agent);
        if (hybrid_) {
            const std::uint64_t rr = e.req.agent < recordedWinner_ ? 1 : 0;
            return (std::min(e.raw, max_) << (idBits_ + 1)) |
                   (rr << idBits_) | id;
        }
        std::uint64_t counter = e.raw;
        if (counter > max_) {
            counter = fcfs_.overflow == OverflowPolicy::kSaturate
                          ? max_
                          : (counter & max_);
        }
        std::uint64_t w = (counter << idBits_) | id;
        if (fcfs_.enablePriority && e.req.priority)
            w |= 1ULL << (width_ + idBits_);
        return w;
    }

    FcfsConfig fcfs_;
    bool hybrid_ = false;
    int idBits_;
    int width_ = 0;
    std::uint64_t max_ = 0;
    Tick window_ = 0;
    AgentId recordedWinner_ = 0;
    std::vector<Entry> pending_; // post order
    /** Index in pending_ of each agent's presented request, or kNone. */
    std::vector<std::size_t> presented_;
    Stream streams_[2];
    std::uint64_t arrivals_ = 0;
    std::uint64_t tied_ = 0;
    std::uint64_t overflows_ = 0;
};

} // namespace busarb::test

#endif // BUSARB_TESTS_SUPPORT_FCFS_REFERENCE_HH
