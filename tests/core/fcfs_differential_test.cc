/**
 * @file
 * Differential tests: the distributed FCFS protocol against an oracle
 * that sorts requests by (pulse epoch, static identity) — the order the
 * hardware is specified to produce (Section 3.2) — and the FCFS and
 * hybrid protocols against a per-request counter model.
 */

#include <algorithm>
#include <string>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/fcfs.hh"
#include "core/hybrid.hh"
#include "random/rng.hh"
#include "support/fcfs_reference.hh"
#include "support/protocol_driver.hh"

namespace busarb {
namespace {

using test::ProtocolDriver;

/** A request the oracle tracks. */
struct OracleRequest
{
    AgentId agent;
    Tick issued;
    std::uint64_t epoch;
};

/**
 * Oracle for FCFS implementation 2: arrival epochs (pulse windows)
 * ordered ascending; ties within an epoch by descending identity.
 */
class IncrLineOracle
{
  public:
    explicit IncrLineOracle(Tick window) : window_(window) {}

    void
    post(AgentId agent, Tick now)
    {
        if (!any_ || now - lastPulse_ >= window_) {
            ++epoch_;
            lastPulse_ = now;
            any_ = true;
        }
        pending_.push_back(OracleRequest{agent, now, epoch_});
    }

    AgentId
    serveNext()
    {
        auto best = pending_.begin();
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->epoch < best->epoch ||
                (it->epoch == best->epoch && it->agent > best->agent)) {
                best = it;
            }
        }
        const AgentId agent = best->agent;
        pending_.erase(best);
        return agent;
    }

    bool empty() const { return pending_.empty(); }

  private:
    Tick window_;
    Tick lastPulse_ = 0;
    bool any_ = false;
    std::uint64_t epoch_ = 0;
    std::vector<OracleRequest> pending_;
};

TEST(FcfsDifferentialTest, IncrLineMatchesEpochOracle)
{
    Rng rng(0xD1FF);
    for (int trial = 0; trial < 25; ++trial) {
        const int n = 3 + static_cast<int>(rng.below(10));
        const Tick window = unitsToTicks(0.05);
        FcfsConfig config;
        config.strategy = FcfsStrategy::kIncrLine;
        config.incrWindow = 0.05;
        FcfsProtocol protocol(config);
        ProtocolDriver driver(protocol, n);
        IncrLineOracle oracle(window);

        // Random bursts of arrivals (single-outstanding per agent),
        // interleaved with arbitrations.
        std::vector<bool> outstanding(static_cast<std::size_t>(n) + 1,
                                      false);
        Tick now = 0;
        int pending = 0;
        for (int step = 0; step < 300; ++step) {
            now += static_cast<Tick>(rng.below(unitsToTicks(0.4)));
            if (rng.below(100) < 55) {
                const AgentId a = 1 + static_cast<AgentId>(rng.below(
                                        static_cast<std::uint64_t>(n)));
                if (!outstanding[static_cast<std::size_t>(a)]) {
                    outstanding[static_cast<std::size_t>(a)] = true;
                    driver.post(a, now);
                    oracle.post(a, now);
                    ++pending;
                }
            }
            if (pending > 0 && rng.below(100) < 45) {
                const AgentId got = driver.arbitrateAndServe(now);
                const AgentId want = oracle.serveNext();
                ASSERT_EQ(got, want)
                    << "trial " << trial << " step " << step;
                outstanding[static_cast<std::size_t>(got)] = false;
                --pending;
            }
        }
        // Drain.
        while (pending > 0) {
            now += unitsToTicks(1.0);
            const AgentId got = driver.arbitrateAndServe(now);
            const AgentId want = oracle.serveNext();
            ASSERT_EQ(got, want) << "drain, trial " << trial;
            --pending;
        }
        EXPECT_TRUE(oracle.empty());
    }
}

TEST(FcfsDifferentialTest, CountersNeverExceedTheSingleOutstandingBound)
{
    // Section 3.2: with one outstanding request per agent, at most N
    // requests can be served while a request waits, so ceil(log2(N+1))
    // counter bits never overflow.
    Rng rng(0xB0B);
    const int n = 10;
    FcfsConfig config;
    config.strategy = FcfsStrategy::kIncrementOnLose;
    FcfsProtocol protocol(config);
    ProtocolDriver driver(protocol, n);
    std::vector<bool> outstanding(static_cast<std::size_t>(n) + 1, false);
    int pending = 0;
    Tick now = 0;
    for (int step = 0; step < 4000; ++step) {
        ++now;
        const AgentId a = 1 + static_cast<AgentId>(
                                rng.below(static_cast<std::uint64_t>(n)));
        if (!outstanding[static_cast<std::size_t>(a)]) {
            outstanding[static_cast<std::size_t>(a)] = true;
            driver.post(a, now);
            ++pending;
        }
        if (pending > 0 && rng.below(100) < 60) {
            const AgentId got = driver.arbitrateAndServe(now);
            outstanding[static_cast<std::size_t>(got)] = false;
            --pending;
        }
    }
    EXPECT_EQ(protocol.overflowEvents(), 0u);
}

/**
 * Drives `protocol` and the per-request `reference` with the same random
 * traffic over `n` agents: bursts of posts (at most three outstanding
 * per agent, one in four a priority request when `priority`), passes,
 * and posts while a pass is in flight. Every winner, and for FCFS every
 * overflow and tie count, must match.
 */
template <typename Protocol>
void
checkAgainstReference(Protocol &protocol, test::FcfsReference &reference,
                      int n, bool priority, std::uint64_t seed,
                      const std::string &what)
{
    constexpr bool kFcfs = std::is_same_v<Protocol, FcfsProtocol>;
    Rng rng(seed);
    ProtocolDriver driver(protocol, n);
    std::vector<int> outstanding(static_cast<std::size_t>(n) + 1, 0);
    int pending = 0;
    Tick now = 0;
    const auto post = [&] {
        const AgentId a = 1 + static_cast<AgentId>(
                                  rng.below(static_cast<std::uint64_t>(n)));
        if (outstanding[static_cast<std::size_t>(a)] == 3)
            return;
        ++outstanding[static_cast<std::size_t>(a)];
        ++pending;
        reference.post(driver.post(a, now, priority && rng.below(4) == 0));
    };
    const auto arbitrate = [&](int step) {
        reference.beginPass();
        const AgentId got = driver.arbitrateAndServe(now, [&] {
            if (rng.below(4) == 0) {
                now += static_cast<Tick>(rng.below(unitsToTicks(0.08)));
                post();
            }
        });
        const Request want = reference.completePass();
        ASSERT_EQ(got, want.agent) << what << " step " << step;
        ASSERT_EQ(driver.served().back().seq, want.seq)
            << what << " step " << step;
        reference.serve(want);
        --outstanding[static_cast<std::size_t>(got)];
        --pending;
        if constexpr (kFcfs) {
            ASSERT_EQ(protocol.overflowEvents(), reference.overflowEvents())
                << what << " step " << step;
            ASSERT_EQ(protocol.tiedArrivals(), reference.tiedArrivals())
                << what << " step " << step;
        }
    };
    std::uint64_t burst = 1;
    for (int step = 0; step < 600; ++step) {
        if (step % 100 == 0)
            burst = 1 + rng.below(4); // alternate light and heavy phases
        now += static_cast<Tick>(rng.below(unitsToTicks(0.08)));
        for (std::uint64_t i = rng.below(burst + 1); i > 0; --i)
            post();
        if (pending > 0 && rng.below(100) < 70)
            arbitrate(step);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    while (pending > 0 && !::testing::Test::HasFatalFailure())
        arbitrate(-1);
}

const int kReferenceAgents[] = {3, 63, 64, 65, 130};

TEST(FcfsDifferentialTest, MatchesPerRequestReference)
{
    struct Counting
    {
        bool priority;
        PriorityCounting counting;
    };
    std::uint64_t seed = 0xFC5;
    for (auto strategy :
         {FcfsStrategy::kIncrementOnLose, FcfsStrategy::kIncrLine}) {
        const bool lose = strategy == FcfsStrategy::kIncrementOnLose;
        const Counting countings[] = {
            {false, PriorityCounting::kMatchedIncrement},
            {true, PriorityCounting::kAlwaysIncrement},
            {true, lose ? PriorityCounting::kMatchedIncrement
                        : PriorityCounting::kDualIncrLines}};
        for (const Counting &c : countings) {
            for (int bits : {1, 2, 3, 0}) {
                for (auto policy :
                     {OverflowPolicy::kSaturate, OverflowPolicy::kWrap}) {
                    for (int n : kReferenceAgents) {
                        FcfsConfig config;
                        config.strategy = strategy;
                        config.counterBits = bits;
                        config.maxOutstandingHint = bits == 0 ? 3 : 1;
                        config.overflow = policy;
                        config.incrWindow = 0.05;
                        config.enablePriority = c.priority;
                        config.priorityCounting = c.counting;
                        FcfsProtocol protocol(config);
                        test::FcfsReference reference(config, n);
                        const std::string what =
                            std::string(lose ? "fcfs1" : "fcfs2") +
                            " bits=" + std::to_string(bits) +
                            (policy == OverflowPolicy::kWrap ? " wrap"
                                                             : "") +
                            " counting=" +
                            std::to_string(static_cast<int>(c.counting)) +
                            (c.priority ? " priority" : "") +
                            " N=" + std::to_string(n);
                        checkAgainstReference(protocol, reference, n,
                                              c.priority, ++seed, what);
                        if (HasFatalFailure())
                            return;
                    }
                }
            }
        }
    }
}

TEST(HybridDifferentialTest, MatchesPerRequestReference)
{
    std::uint64_t seed = 0x4B;
    for (int bits : {1, 2, 0}) {
        for (int n : kReferenceAgents) {
            HybridConfig config;
            config.counterBits = bits;
            HybridProtocol protocol(config);
            test::FcfsReference reference(config, n);
            checkAgainstReference(protocol, reference, n, false, ++seed,
                                  "hybrid bits=" + std::to_string(bits) +
                                      " N=" + std::to_string(n));
            if (HasFatalFailure())
                return;
        }
    }
}

} // namespace
} // namespace busarb
