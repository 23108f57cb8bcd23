/**
 * @file
 * Full-stack differential test for the event-queue policy seam: the
 * same scenarios pushed through the calendar and the reference heap
 * kernel must produce byte-identical artifacts — every trace record,
 * metric, fairness and health snapshot, and batch statistic, not just
 * the summary numbers. This is the determinism contract docs/KERNEL.md
 * promises. The tools only run the calendar, so this in-process
 * comparison is where the heap stays pinned to it.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

std::string
metricsJson(const ScenarioResult &result)
{
    std::ostringstream os;
    result.metrics.writeJson(os);
    return os.str();
}

void
expectIdenticalRuns(ScenarioConfig config, const std::string &protocol)
{
    config.observe.captureTrace = true;
    config.eventQueuePolicy = EventQueuePolicy::kCalendar;
    const auto calendar =
        runScenario(config, ProtocolRegistry::builtin().fromSpec(protocol));
    config.eventQueuePolicy = EventQueuePolicy::kHeap;
    const auto heap =
        runScenario(config, ProtocolRegistry::builtin().fromSpec(protocol));

    // Byte-identical event trace: same transactions at the same ticks
    // in the same order.
    ASSERT_FALSE(calendar.binaryTrace.empty());
    EXPECT_EQ(calendar.binaryTrace, heap.binaryTrace);

    // Identical metrics tree (bus.*, agent.NN.*, wait.*, and the
    // fairness.* and health.* entries when those sinks are attached).
    EXPECT_EQ(metricsJson(calendar), metricsJson(heap));

    // Identical snapshot JSONL, keyed to simulated time.
    EXPECT_EQ(calendar.fairnessSnapshots.empty(),
              config.observe.snapshotEvery <= 0.0);
    EXPECT_EQ(calendar.healthSnapshots.empty(),
              !config.observe.healthSnapshots);
    EXPECT_EQ(calendar.fairnessSnapshots, heap.fairnessSnapshots);
    EXPECT_EQ(calendar.healthSnapshots, heap.healthSnapshots);

    // Identical batch statistics (bit-exact, not approximately equal).
    ASSERT_EQ(calendar.batches.size(), heap.batches.size());
    for (std::size_t b = 0; b < calendar.batches.size(); ++b) {
        EXPECT_EQ(calendar.batches[b].waitMean, heap.batches[b].waitMean)
            << "batch " << b;
        EXPECT_EQ(calendar.batches[b].duration, heap.batches[b].duration)
            << "batch " << b;
        EXPECT_EQ(calendar.batches[b].completions,
                  heap.batches[b].completions)
            << "batch " << b;
        EXPECT_EQ(calendar.batches[b].passes, heap.batches[b].passes)
            << "batch " << b;
    }
}

TEST(QueueDifferentialTest, Table45JustMissScenarioIsIdentical)
{
    // The paper's most tie-sensitive experiment: Table 4.5's "just
    // miss" workload only reproduces when same-tick events resolve in
    // exactly the contractual (tick, priority, id) order, so it is the
    // sharpest full-stack probe of the queue ordering.
    ScenarioConfig config = worstCaseRrScenario(10, 0.0);
    config.numBatches = 5;
    config.batchSize = 1500;
    config.warmup = 1500;
    expectIdenticalRuns(config, "rr1");
}

TEST(QueueDifferentialTest, Table45ResultStillHoldsOnBothKernels)
{
    // And the headline number itself: the slow agent is served every
    // other cycle (throughput ratio ~0.5) on either kernel.
    ScenarioConfig config = worstCaseRrScenario(10, 0.0);
    config.numBatches = 5;
    config.batchSize = 1500;
    config.warmup = 1500;
    for (const auto policy :
         {EventQueuePolicy::kCalendar, EventQueuePolicy::kHeap}) {
        config.eventQueuePolicy = policy;
        const auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
        EXPECT_NEAR(result.throughputRatio(1, 2).value, 0.5, 0.05);
    }
}

TEST(QueueDifferentialTest, StochasticFcfsScenarioIsIdentical)
{
    // A stochastic workload exercises bucket spreading and calendar
    // resizes far more than the deterministic worst case does.
    ScenarioConfig config = equalLoadScenario(8, 2.0);
    config.numBatches = 3;
    config.batchSize = 800;
    config.warmup = 400;
    expectIdenticalRuns(config, "fcfs1");
}

TEST(QueueDifferentialTest, TwentyAgentWorkloadIsIdentical)
{
    // The acceptance-gate workload (20 agents) through both kernels.
    ScenarioConfig config = equalLoadScenario(20, 2.0);
    config.numBatches = 3;
    config.batchSize = 800;
    config.warmup = 400;
    expectIdenticalRuns(config, "rr1");
}

/**
 * @return The cell busarb_sweep runs for `load` on 8 agents, 3 batches
 *         of 400, with the fairness auditor and health monitor on.
 */
ScenarioConfig
observedSweepCell(const std::string &source, const std::string &load)
{
    ScenarioSpec spec;
    spec.agents = 8;
    spec.batches = 3;
    spec.batchSize = 400;
    spec.source = source;
    ScenarioConfig config = spec.configForLoad(load);
    config.observe.fairness = true;
    config.observe.health = true;
    return config;
}

TEST(QueueDifferentialTest, ObservedClosedSweepIsIdentical)
{
    // Every cell of a light-to-saturated sweep, with every observer
    // attached.
    for (const char *load : {"0.5", "2", "7.5"}) {
        for (const char *protocol : {"rr1", "fcfs1", "aap1"}) {
            SCOPED_TRACE(std::string(protocol) + " at load " + load);
            expectIdenticalRuns(observedSweepCell("closed", load),
                                protocol);
        }
    }
}

TEST(QueueDifferentialTest, Aap1SnapshotsNearSaturationAreIdentical)
{
    // RR and AAP-1 near saturation (load 7.6 on 8 agents), with the
    // fairness and health snapshot streams on.
    ScenarioSpec spec;
    spec.agents = 8;
    spec.batches = 2;
    spec.batchSize = 400;
    spec.warmupSet = true;
    spec.warmup = 400;
    ScenarioConfig config = spec.configForLoad("7.6");
    config.observe.snapshotEvery = 100.0;
    config.observe.fairness = true;
    config.observe.health = true;
    config.observe.healthSnapshots = true;
    for (const char *protocol : {"rr1", "aap1"}) {
        SCOPED_TRACE(protocol);
        expectIdenticalRuns(config, protocol);
    }
}

TEST(QueueDifferentialTest, OpenMmppSourceIsIdentical)
{
    // A bursty open-loop source schedules arrivals independently of
    // service, unlike the closed loop.
    for (const char *load : {"0.5", "0.8"}) {
        for (const char *protocol : {"rr1", "fcfs1"}) {
            SCOPED_TRACE(std::string(protocol) + " at load " + load);
            expectIdenticalRuns(
                observedSweepCell("open:dist=mmpp,burst=4,gap=8", load),
                protocol);
        }
    }
}

} // namespace
} // namespace busarb
