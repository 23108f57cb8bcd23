/**
 * @file
 * Paper anchors: regression tests pinning the simulation to the
 * published numbers (within confidence-interval-sized tolerances).
 * If a refactor shifts any of these, the reproduction has drifted.
 */

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

ScenarioConfig
anchorConfig(ScenarioConfig config)
{
    config.numBatches = 10;
    config.batchSize = 4000;
    config.warmup = 4000;
    return config;
}

TEST(PaperAnchorTest, Table42MeanWaitTenAgents)
{
    // Table 4.2(a): W = 1.64 / 2.77 / 6.00 / 9.67 at loads
    // 0.25 / 1.0 / 2.0 / 7.52.
    const struct
    {
        double load;
        double w;
    } anchors[] = {{0.25, 1.64}, {1.0, 2.77}, {2.0, 6.00}, {7.5, 9.67}};
    for (const auto &a : anchors) {
        const auto result = runScenario(
            anchorConfig(equalLoadScenario(10, a.load)),
            ProtocolRegistry::builtin().fromSpec("rr1"));
        EXPECT_NEAR(result.meanWait().value, a.w, 0.05 + 0.01 * a.w)
            << "load " << a.load;
    }
}

TEST(PaperAnchorTest, Table42WaitStddevTenAgents)
{
    // Table 4.2(a) at load 2.0: sigma_FCFS = 1.43, sigma_RR = 2.09.
    const auto config = anchorConfig(equalLoadScenario(10, 2.0));
    const auto rr =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const auto fcfs =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(rr.waitStddev().value, 2.09, 0.12);
    EXPECT_NEAR(fcfs.waitStddev().value, 1.43, 0.12);
}

TEST(PaperAnchorTest, Table42SixtyFourAgentsSaturated)
{
    // Table 4.2(c) at load 5.0: W = 52.20, sigma_FCFS = 2.44,
    // sigma_RR = 10.89.
    const auto config = anchorConfig(equalLoadScenario(64, 5.0));
    const auto rr =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const auto fcfs =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(rr.meanWait().value, 52.20, 0.4);
    EXPECT_NEAR(rr.waitStddev().value, 10.89, 0.7);
    EXPECT_NEAR(fcfs.waitStddev().value, 2.44, 0.3);
}

TEST(PaperAnchorTest, Table41FcfsBiasTenAgents)
{
    // Table 4.1(a): FCFS impl 1 ratio peaks at 1.09 near load 2.0-2.5
    // and relaxes to 1.01 at load 7.52.
    const auto peak = runScenario(
        anchorConfig(equalLoadScenario(10, 2.5)),
        ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(peak.throughputRatio(10, 1).value, 1.09, 0.035);
    const auto heavy = runScenario(
        anchorConfig(equalLoadScenario(10, 7.5)),
        ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(heavy.throughputRatio(10, 1).value, 1.01, 0.02);
}

TEST(PaperAnchorTest, Table41AapUnfairnessThirtyAgents)
{
    // Table 4.1(b): AAP-1 ratio 1.96 at load 5.0.
    const auto result = runScenario(
        anchorConfig(equalLoadScenario(30, 5.0)),
        ProtocolRegistry::builtin().fromSpec("aap1"));
    EXPECT_NEAR(result.throughputRatio(30, 1).value, 1.98, 0.08);
}

TEST(PaperAnchorTest, Table44UnequalRatesThirtyAgents)
{
    // Table 4.4(a) at total load 2.58: RR 1.10, FCFS 1.26.
    ScenarioConfig config =
        anchorConfig(unequalLoadScenario(30, 2.5 / 30.0, 2.0));
    const auto rr =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const auto fcfs =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(rr.throughputRatio(1, 2).value, 1.10, 0.05);
    EXPECT_NEAR(fcfs.throughputRatio(1, 2).value, 1.26, 0.06);
}

TEST(PaperAnchorTest, Table45JustMissExactHalf)
{
    // Table 4.5: 0.50 +- 0.00 at CV = 0 for every system size.
    for (int n : {10, 30}) {
        ScenarioConfig config = anchorConfig(worstCaseRrScenario(n, 0.0));
        const auto result =
            runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
        EXPECT_NEAR(result.throughputRatio(1, 2).value, 0.50, 0.02)
            << n;
    }
}

TEST(PaperAnchorTest, Figure41CrossoverAtTheMean)
{
    // Figure 4.1 (30 agents, load 1.5): both CDFs cross near the mean
    // wait (11.02); FCFS is far steeper around it.
    const ScenarioConfig config = anchorConfig(equalLoadScenario(30, 1.5));
    const auto rr =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    const auto fcfs =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(rr.meanWait().value, 11.02, 0.25);
    const double mean = rr.meanWait().value;
    // Below the mean RR has more mass; above it FCFS does.
    EXPECT_GT(rr.waitHistogram.cdf(mean - 3.0),
              fcfs.waitHistogram.cdf(mean - 3.0) + 0.1);
    EXPECT_LT(rr.waitHistogram.cdf(mean + 3.0),
              fcfs.waitHistogram.cdf(mean + 3.0) - 0.1);
}

} // namespace
} // namespace busarb
