/**
 * @file
 * Test helper that drives an ArbitrationProtocol directly, without the
 * bus engine, so unit tests can control exactly when requests are posted
 * and when arbitration passes run.
 */

#ifndef BUSARB_TESTS_SUPPORT_PROTOCOL_DRIVER_HH
#define BUSARB_TESTS_SUPPORT_PROTOCOL_DRIVER_HH

#include <cstdint>
#include <vector>

#include "bus/protocol.hh"

namespace busarb::test {

/**
 * Drives a protocol through post / arbitrate / serve steps.
 */
class ProtocolDriver
{
  public:
    explicit ProtocolDriver(ArbitrationProtocol &protocol, int num_agents)
        : protocol_(protocol)
    {
        protocol_.reset(num_agents);
    }

    /** Post a request from `agent` at tick `now`. */
    Request
    post(AgentId agent, Tick now, bool priority = false)
    {
        Request req;
        req.agent = agent;
        req.issued = now;
        req.priority = priority;
        req.seq = ++seq_;
        protocol_.requestPosted(req);
        return req;
    }

    /**
     * Run one full arbitration (retrying through kRetry results) and
     * start the winner's tenure.
     *
     * @param now Tick at which the passes begin and resolve.
     * @return The winning agent, or kNoAgent if nothing was pending.
     */
    AgentId
    arbitrateAndServe(Tick now)
    {
        return arbitrateAndServe(now, [] {});
    }

    /**
     * As arbitrateAndServe(now), but calls `during()` between each
     * beginPass and completePass: what happens while a pass is in
     * flight, such as requests posted during it.
     */
    template <typename Fn>
    AgentId
    arbitrateAndServe(Tick now, Fn &&during)
    {
        if (!protocol_.wantsPass())
            return kNoAgent;
        for (int attempts = 0; attempts < 4; ++attempts) {
            protocol_.beginPass(now);
            during();
            const PassResult result = protocol_.completePass(now);
            switch (result.kind) {
              case PassResult::Kind::kWinner:
                protocol_.tenureStarted(result.winner, now);
                protocol_.tenureEnded(result.winner, now + 1);
                served_.push_back(result.winner);
                retries_ += attempts;
                return result.winner.agent;
              case PassResult::Kind::kRetry:
                continue;
              case PassResult::Kind::kIdle:
                return kNoAgent;
            }
        }
        return kNoAgent;
    }

    /** @return Every request served so far, in order. */
    const std::vector<Request> &served() const { return served_; }

    /** @return Retry passes consumed across all arbitrations. */
    int retries() const { return retries_; }

  private:
    ArbitrationProtocol &protocol_;
    std::uint64_t seq_ = 0;
    std::vector<Request> served_;
    int retries_ = 0;
};

} // namespace busarb::test

#endif // BUSARB_TESTS_SUPPORT_PROTOCOL_DRIVER_HH
