/**
 * @file
 * Pins that steady-state arbitration passes never touch the heap: every
 * signal-level protocol at 64 agents runs 10k closed-workload passes
 * (beginPass, settleRoundsForPass, completePass, tenure) without one
 * allocation. This binary replaces the global operator new to count
 * them, so it must stay a test executable of its own.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "random/rng.hh"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace busarb {
namespace {

constexpr int kAgents = 64;

/**
 * A closed workload at pass granularity: every agent starts with a
 * request, and a served agent posts its next one after 1-8 passes.
 */
class ClosedLoop
{
  public:
    explicit ClosedLoop(ArbitrationProtocol &protocol)
        : protocol_(protocol), wakePass_(kAgents + 1, -1)
    {
        protocol_.reset(kAgents);
        for (AgentId a = 1; a <= kAgents; ++a)
            post(a);
    }

    /** Runs `passes` passes (retries included). */
    void
    run(int passes)
    {
        for (int i = 0; i < passes; ++i) {
            ++pass_;
            for (AgentId a = 1; a <= kAgents; ++a) {
                if (wakePass_[static_cast<std::size_t>(a)] == pass_)
                    post(a);
            }
            if (!protocol_.wantsPass())
                continue;
            protocol_.beginPass(now_);
            rounds_ += protocol_.settleRoundsForPass();
            now_ += 10;
            const PassResult result = protocol_.completePass(now_);
            if (result.kind != PassResult::Kind::kWinner)
                continue;
            protocol_.tenureStarted(result.winner, now_);
            now_ += 100;
            protocol_.tenureEnded(result.winner, now_);
            wakePass_[static_cast<std::size_t>(result.winner.agent)] =
                pass_ + 1 + static_cast<int>(rng_.below(8));
        }
    }

    long rounds() const { return rounds_; }

  private:
    void
    post(AgentId agent)
    {
        Request req;
        req.agent = agent;
        req.issued = now_;
        req.seq = ++seq_;
        protocol_.requestPosted(req);
    }

    ArbitrationProtocol &protocol_;
    std::vector<int> wakePass_; // index by agent id
    Rng rng_{7};
    Tick now_ = 0;
    int pass_ = 0;
    std::uint64_t seq_ = 0;
    long rounds_ = 0;
};

class PassAllocationTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PassAllocationTest, SteadyStatePassesDoNotAllocate)
{
    const auto protocol =
        ProtocolRegistry::builtin().fromSpec(GetParam())();
    ClosedLoop loop(*protocol);
    loop.run(1000); // warm-up: lets any lazily grown buffer settle
    const std::uint64_t before = g_allocations.load();
    loop.run(10000);
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u) << GetParam();
    EXPECT_GT(loop.rounds(), 0) << "the passes were contested";
}

INSTANTIATE_TEST_SUITE_P(SignalLevel, PassAllocationTest,
                         ::testing::Values("rr1", "rr2", "rr3", "fcfs1",
                                           "fcfs2", "hybrid", "wrr",
                                           "fixed", "aap1", "aap2"),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace busarb
