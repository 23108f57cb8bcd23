/**
 * @file
 * Implementing a custom arbitration protocol against the public API.
 *
 * The paper's closing remark: "It may also be possible to design an
 * adaptive scheme that uses the history of request patterns to optimize
 * its behavior." This example builds exactly such a toy protocol — a
 * longest-queue-first arbiter that favours the agent with the most
 * outstanding requests (ties by static identity) — plugs it into the
 * bus engine, and race it against RR and FCFS.
 *
 * It demonstrates everything a protocol author needs:
 *   - deriving from ArbitrationProtocol,
 *   - holding each pass in an ArbitrationPass: identity lines built
 *     once, the queue-depth bits above them driven at beginPass, and
 *     the wired-OR maximum (winner()) taken at completePass,
 *   - running scenarios through the experiment harness, where a
 *     built-in protocol comes from a spec string and a custom class
 *     from a ProtocolFactory lambda.
 */

#include <algorithm>
#include <iostream>
#include <memory>

#include "bus/arbitration_pass.hh"
#include "bus/protocol.hh"
#include "core/pending_requests.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"
#include "workload/scenario.hh"

namespace {

using namespace busarb;

/**
 * Longest-queue-first arbitration: composite word
 * [ queue depth | static identity ], resolved by maximum finding.
 */
class LongestQueueFirstProtocol : public ArbitrationProtocol
{
  public:
    void
    reset(int num_agents) override
    {
        idBits_ = linesForAgents(num_agents);
        pending_.reset(num_agents);
        pass_.reset(num_agents, idBits_ + kDepthBits, idBits_);
    }

    void
    requestPosted(const Request &req) override
    {
        pending_.add(req);
    }

    bool
    wantsPass() const override
    {
        return !pending_.empty();
    }

    void
    beginPass(Tick) override
    {
        // Every agent with a request competes, driving its queue depth
        // (saturated at the depth width) above its identity, one line
        // per bit.
        pass_.clear();
        for (std::size_t w = 0; w < pass_.numWords(); ++w)
            pass_.competitorWord(w) = pending_.requestMaskWord(w);
        pending_.forEachAgentWithRequests([&](AgentId a) {
            const std::size_t depth =
                std::min(pending_.numOfAgent(a), kMaxDepth);
            for (int b = 0; b < kDepthBits; ++b) {
                if (((depth >> b) & 1U) != 0)
                    pass_.drive(idBits_ + b, a);
            }
        });
    }

    PassResult
    completePass(Tick) override
    {
        if (pass_.empty())
            return PassResult::makeIdle();
        return PassResult::makeWinner(pending_.oldest(pass_.winner()).req);
    }

    void
    tenureStarted(const Request &req, Tick) override
    {
        pending_.popOldest(req.agent);
    }

    int
    settleRoundsForPass() const override
    {
        return pass_.settle().rounds;
    }

    int
    arbitrationLineCount() const override
    {
        return idBits_ + kDepthBits;
    }

    std::string
    name() const override
    {
        return "Longest-queue-first (custom)";
    }

  private:
    static constexpr int kDepthBits = 8;
    static constexpr std::size_t kMaxDepth = (1U << kDepthBits) - 1;

    int idBits_ = 0;
    PendingRequests pending_;
    ArbitrationPass pass_;
};

} // namespace

int
main()
{
    using namespace busarb;

    std::cout << "Custom protocol demo: longest-queue-first vs the "
                 "paper's protocols\n(8 agents with 4 outstanding "
                 "request tokens each, total load ~1.8)\n\n";

    ScenarioConfig config;
    config.numAgents = 8;
    AgentTraits traits;
    traits.meanInterrequest = 3.5;
    traits.cv = 1.0;
    traits.maxOutstanding = 4;
    config.agents.assign(8, traits);
    config.numBatches = 8;
    config.batchSize = 4000;
    config.warmup = 4000;

    TextTable table({"protocol", "throughput", "mean W", "sigma W",
                     "t_N/t_1"});
    const auto report = [&](const ScenarioResult &r) {
        // The custom arbiter can starve agent 1 outright (its queue-depth
        // ties resolve by identity), so compute the ratio from the
        // per-agent estimates instead of per-batch ratios.
        const double low = r.agentThroughput(1).value;
        const double high = r.agentThroughput(8).value;
        table.addRow({
            r.protocolName,
            formatEstimate(r.throughput()),
            formatEstimate(r.meanWait()),
            formatEstimate(r.waitStddev()),
            low > 0.0 ? formatFixed(high / low, 2) : "inf (starved)",
        });
    };
    // Built-in protocols come from spec strings (see --list-protocols)...
    const ProtocolRegistry &protocols = ProtocolRegistry::builtin();
    report(runScenario(config, protocols.fromSpec("rr1")));
    // Counter sizing matters with r > 1 (Section 3.2): tell FCFS that
    // agents keep up to 4 requests outstanding so it adds ceil(log2 4)
    // counter bits. (Try r=1 to watch the saturated counters
    // degenerate into identity order and starve agent 1.)
    report(runScenario(config, protocols.fromSpec("fcfs2:r=4")));
    // ...and a class of your own plugs in as a ProtocolFactory lambda.
    report(runScenario(config, [] {
        return std::make_unique<LongestQueueFirstProtocol>();
    }));
    table.print(std::cout);

    std::cout << "\nThe custom arbiter plugs into the same bus engine "
                 "and harness; note how\nqueue-depth scheduling trades "
                 "fairness for burst drainage.\n";
    return 0;
}
