/**
 * @file
 * Unit tests for the metrics collector, table formatter, protocol
 * registry, and the scenario runner.
 */

#include <algorithm>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/fcfs.hh"
#include "experiment/csv.hh"
#include "experiment/metrics.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "experiment/table.hh"

namespace busarb {
namespace {

Request
makeReq(AgentId agent, Tick issued, std::uint64_t seq)
{
    Request r;
    r.agent = agent;
    r.issued = issued;
    r.seq = seq;
    return r;
}

TEST(MetricsTest, WaitAccounting)
{
    MetricsCollector collector(4);
    const Request r = makeReq(2, 0, 1);
    collector.onServiceStart(r, unitsToTicks(0.5));
    collector.onServiceEnd(r, unitsToTicks(1.5));
    EXPECT_EQ(collector.totalCompletions(), 1u);
    EXPECT_DOUBLE_EQ(collector.totalWaitSum(), 1.5);
    const auto &sums = collector.agent(2);
    EXPECT_EQ(sums.completions, 1u);
    EXPECT_DOUBLE_EQ(sums.waitSum, 1.5);
    EXPECT_DOUBLE_EQ(sums.queueWaitSum, 0.5);
}

TEST(MetricsTest, OverlapIsClampedByWait)
{
    MetricsCollector collector(2);
    collector.setOverlapLimit(1, 2.0);
    const Request shortWait = makeReq(1, 0, 1);
    collector.onServiceStart(shortWait, unitsToTicks(0.0));
    collector.onServiceEnd(shortWait, unitsToTicks(1.0)); // W = 1 < V
    const Request longWait = makeReq(1, 0, 2);
    collector.onServiceStart(longWait, unitsToTicks(4.0));
    collector.onServiceEnd(longWait, unitsToTicks(5.0)); // W = 5 > V
    EXPECT_DOUBLE_EQ(collector.agent(1).overlapSum, 1.0 + 2.0);
}

TEST(MetricsTest, ThinkRecording)
{
    MetricsCollector collector(2);
    collector.recordThink(1, 3.0);
    collector.recordThink(1, 2.0);
    EXPECT_DOUBLE_EQ(collector.agent(1).thinkSum, 5.0);
    EXPECT_DOUBLE_EQ(collector.agent(2).thinkSum, 0.0);
}

TEST(MetricsTest, HistogramOnlyAfterEnable)
{
    MetricsCollector collector(2);
    const Request r1 = makeReq(1, 0, 1);
    collector.onServiceStart(r1, 0);
    collector.onServiceEnd(r1, unitsToTicks(1.0));
    EXPECT_EQ(collector.histogram().count(), 0u);
    collector.enableHistogram();
    const Request r2 = makeReq(1, 0, 2);
    collector.onServiceStart(r2, 0);
    collector.onServiceEnd(r2, unitsToTicks(1.0));
    EXPECT_EQ(collector.histogram().count(), 1u);
}

TEST(TextTableTest, AlignsColumns)
{
    TextTable table({"a", "long header"});
    table.addRow({"1234567", "x"});
    // "±" is two UTF-8 bytes but one column wide.
    table.addRow({"1.50 ± 0.25", "y"});
    std::ostringstream os;
    table.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("a"), std::string::npos);
    EXPECT_NE(out.find("long header"), std::string::npos);
    EXPECT_NE(out.find("1234567"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);

    // Every line's second column starts at the same display column.
    std::istringstream lines(out);
    std::string line;
    std::vector<std::size_t> starts;
    while (std::getline(lines, line)) {
        if (line.find("---") != std::string::npos)
            continue;
        const std::size_t at = line.find_first_not_of(' ', 2);
        const std::size_t second = line.find("  ", at);
        ASSERT_NE(second, std::string::npos) << line;
        const std::string before =
            line.substr(0, line.find_first_not_of(' ', second));
        starts.push_back(static_cast<std::size_t>(
            std::count_if(before.begin(), before.end(), [](char c) {
                return (static_cast<unsigned char>(c) & 0xC0) != 0x80;
            })));
    }
    ASSERT_EQ(starts.size(), 3u);
    EXPECT_EQ(starts[1], starts[0]) << out;
    EXPECT_EQ(starts[2], starts[0]) << out;
}

TEST(TextTableTest, FormatHelpers)
{
    EXPECT_EQ(formatFixed(1.23456, 2), "1.23");
    EXPECT_EQ(formatFixed(2.0, 0), "2");
    EXPECT_EQ(formatEstimate(Estimate{1.5, 0.25}, 2), "1.50 ± 0.25");
}

TEST(TextTableDeathTest, RowSizeMismatch)
{
    TextTable table({"a", "b"});
    EXPECT_DEATH(table.addRow({"only one"}), "cells");
}

TEST(ProtocolRegistryTest, AllKeysConstructible)
{
    const ProtocolRegistry &registry = ProtocolRegistry::builtin();
    for (const auto &desc : registry.all()) {
        auto protocol = registry.fromSpec(desc.key)();
        ASSERT_NE(protocol, nullptr) << desc.key;
        protocol->reset(8);
        EXPECT_FALSE(protocol->name().empty());
        EXPECT_FALSE(protocol->wantsPass());
    }
}

TEST(ProtocolRegistryTest, LookupByKey)
{
    auto factory = ProtocolRegistry::builtin().fromSpec("rr2");
    auto protocol = factory();
    EXPECT_NE(protocol->name().find("impl 2"), std::string::npos);
}

TEST(ProtocolSpecTest, FcfsOptionsApply)
{
    auto factory = ProtocolRegistry::builtin().fromSpec(
        "fcfs2:window=0.05,bits=3,wrap,r=4");
    auto protocol = factory();
    auto *fcfs = dynamic_cast<FcfsProtocol *>(protocol.get());
    ASSERT_NE(fcfs, nullptr);
    fcfs->reset(10);
    EXPECT_EQ(fcfs->counterBits(), 3);
    EXPECT_NE(fcfs->name().find("a-incr"), std::string::npos);
}

TEST(ProtocolSpecTest, RrPriorityOptionsApply)
{
    auto protocol = ProtocolRegistry::builtin().fromSpec("rr1:priority")();
    protocol->reset(8);
    Request req;
    req.agent = 1;
    req.seq = 1;
    req.priority = true;
    protocol->requestPosted(req); // must not be fatal
    protocol->beginPass(0);
    const auto result = protocol->completePass(0);
    EXPECT_EQ(result.winner.agent, 1);
}

TEST(ProtocolSpecTest, TicketAndHybridBits)
{
    auto ticket = ProtocolRegistry::builtin().fromSpec("ticket:bits=6")();
    ticket->reset(4);
    EXPECT_NE(ticket->name().find("Ticket"), std::string::npos);
    auto hybrid = ProtocolRegistry::builtin().fromSpec("hybrid:bits=2")();
    hybrid->reset(4);
    EXPECT_NE(hybrid->name().find("Hybrid"), std::string::npos);
}

TEST(ProtocolSpecDeathTest, BadSpecsAreFatal)
{
    EXPECT_EXIT(ProtocolRegistry::builtin().fromSpec("nope:priority"),
                ::testing::ExitedWithCode(1), "unknown protocol key");
    EXPECT_EXIT(ProtocolRegistry::builtin().fromSpec("rr1:turbo"),
                ::testing::ExitedWithCode(1), "unknown option");
    EXPECT_EXIT(ProtocolRegistry::builtin().fromSpec("fcfs1:bits"),
                ::testing::ExitedWithCode(1), "needs a value");
    EXPECT_EXIT(
        ProtocolRegistry::builtin().fromSpec("fcfs1:counting=sometimes"),
        ::testing::ExitedWithCode(1), "always");
    EXPECT_EXIT(ProtocolRegistry::builtin().fromSpec("central-rr:bits=2"),
                ::testing::ExitedWithCode(1), "unknown option");
    EXPECT_EXIT(ProtocolRegistry::builtin().fromSpec("rr1:priority=maybe"),
                ::testing::ExitedWithCode(1), "true/false");
}

TEST(ProtocolRegistryDeathTest, UnknownKey)
{
    EXPECT_EXIT(ProtocolRegistry::builtin().fromSpec("nope"),
                ::testing::ExitedWithCode(1),
                "unknown protocol");
}

/** A small, fast scenario for runner tests. */
ScenarioConfig
smallScenario(double load = 1.0)
{
    ScenarioConfig config = equalLoadScenario(6, load, 1.0);
    config.numBatches = 5;
    config.batchSize = 400;
    config.warmup = 400;
    return config;
}

TEST(RunnerTest, ProducesRequestedBatches)
{
    const auto result = runScenario(
        smallScenario(), ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_EQ(result.batches.size(), 5u);
    EXPECT_EQ(result.numAgents, 6);
    EXPECT_FALSE(result.protocolName.empty());
    for (const auto &b : result.batches) {
        EXPECT_GT(b.duration, 0.0);
        std::uint64_t total = 0;
        for (auto c : b.completions)
            total += c;
        EXPECT_EQ(total, 400u);
    }
}

TEST(RunnerTest, LowLoadThroughputMatchesOfferedLoad)
{
    const auto result =
        runScenario(smallScenario(0.3),
                    ProtocolRegistry::builtin().fromSpec("rr1"));
    const Estimate thr = result.throughput();
    EXPECT_NEAR(thr.value, 0.3, 0.03);
    const Estimate util = result.utilization();
    EXPECT_NEAR(util.value, 0.3, 0.03);
}

TEST(RunnerTest, SaturatedBusIsFullyUtilized)
{
    const auto result =
        runScenario(smallScenario(3.0),
                    ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NEAR(result.utilization().value, 1.0, 1e-6);
    EXPECT_NEAR(result.throughput().value, 1.0, 1e-6);
}

TEST(RunnerTest, HistogramExcludesWarmup)
{
    // Every run collects the waiting-time histogram, from the end of
    // warm-up on: it holds exactly the measured completions.
    const auto config = smallScenario();
    ASSERT_GT(config.warmup, 0u);
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("rr1"));
    EXPECT_EQ(result.waitHistogram.count(),
              static_cast<std::uint64_t>(config.numBatches) *
                  config.batchSize);
    EXPECT_GT(result.waitHistogram.cdf(1000.0), 0.99);
}

TEST(RunnerTest, AgentThroughputsSumToTotal)
{
    const auto result =
        runScenario(smallScenario(2.0),
                    ProtocolRegistry::builtin().fromSpec("rr1"));
    double sum = 0.0;
    for (AgentId a = 1; a <= 6; ++a)
        sum += result.agentThroughput(a).value;
    EXPECT_NEAR(sum, result.throughput().value, 1e-9);
}

TEST(RunnerTest, MinimumWaitIsArbitrationPlusService)
{
    const auto result =
        runScenario(smallScenario(0.1),
                    ProtocolRegistry::builtin().fromSpec("rr1"));
    // W >= 1.5 always; near-idle bus means W barely above 1.5.
    EXPECT_GT(result.meanWait().value, 1.49);
    EXPECT_LT(result.meanWait().value, 1.8);
}

TEST(RunnerTest, SameSeedReproduces)
{
    const auto r1 = runScenario(
        smallScenario(), ProtocolRegistry::builtin().fromSpec("fcfs1"));
    const auto r2 = runScenario(
        smallScenario(), ProtocolRegistry::builtin().fromSpec("fcfs1"));
    ASSERT_EQ(r1.batches.size(), r2.batches.size());
    for (std::size_t i = 0; i < r1.batches.size(); ++i) {
        EXPECT_DOUBLE_EQ(r1.batches[i].duration,
                         r2.batches[i].duration);
        EXPECT_DOUBLE_EQ(r1.batches[i].waitMean, r2.batches[i].waitMean);
    }
}

TEST(RunnerTest, DifferentSeedsDiffer)
{
    auto config = smallScenario();
    const auto r1 =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    config.seed = 999;
    const auto r2 =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fcfs1"));
    EXPECT_NE(r1.batches[0].waitMean, r2.batches[0].waitMean);
}

TEST(CsvTest, BatchesCsvHasHeaderAndRows)
{
    const auto result = runScenario(
        smallScenario(), ProtocolRegistry::builtin().fromSpec("rr1"));
    std::ostringstream os;
    writeBatchesCsv(result, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("batch,duration,utilization"), std::string::npos);
    EXPECT_NE(out.find("completions_6"), std::string::npos);
    // Header + one line per batch.
    EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')),
              1 + static_cast<int>(result.batches.size()));
}

TEST(CsvTest, HistogramCsvEndsWithOverflowRow)
{
    const auto result = runScenario(
        smallScenario(), ProtocolRegistry::builtin().fromSpec("rr1"));
    std::ostringstream os;
    writeHistogramCsv(result, os);
    const std::string out = os.str();
    EXPECT_NE(out.find("bin_lo,bin_hi,count,cdf"), std::string::npos);
    EXPECT_NE(out.find(",inf,"), std::string::npos);
}

TEST(CsvTest, SummaryRowsRoundTrip)
{
    const auto result = runScenario(
        smallScenario(), ProtocolRegistry::builtin().fromSpec("rr1"));
    std::ostringstream os;
    writeSummaryCsvHeader(os);
    writeSummaryCsvRow(result, "load=1.0", os);
    writeSummaryCsvRow(result, "again", os);
    const std::string out = os.str();
    // The whole header is pinned: bench/e2e's goldens hash the CSV.
    EXPECT_EQ(out.substr(0, out.find('\n') + 1),
              "label,protocol,throughput,throughput_hw,utilization,"
              "wait_mean,wait_mean_hw,wait_stddev,wait_stddev_hw,"
              "ratio_hi_lo,ratio_hi_lo_hw\n");
    EXPECT_NE(out.find("load=1.0,RR"), std::string::npos);
    EXPECT_EQ(static_cast<int>(std::count(out.begin(), out.end(), '\n')),
              3);
}

TEST(RunnerTest, ThroughputRatioSurvivesStarvation)
{
    // Fixed priority at heavy load starves agent 1 in some batches; the
    // ratio must degrade gracefully instead of failing.
    auto config = smallScenario(3.0);
    const auto result =
        runScenario(config, ProtocolRegistry::builtin().fromSpec("fixed"));
    const Estimate ratio = result.throughputRatio(6, 1);
    EXPECT_TRUE(ratio.value > 1.0); // possibly +inf
    EXPECT_DOUBLE_EQ(ratio.halfWidth, 0.0);
}

TEST(RunnerDeathTest, MisconfiguredScenario)
{
    ScenarioConfig config = smallScenario();
    config.agents.pop_back();
    EXPECT_DEATH(runScenario(config,
                             ProtocolRegistry::builtin().fromSpec("rr1")),
                 "agent traits count");
}

} // namespace
} // namespace busarb
