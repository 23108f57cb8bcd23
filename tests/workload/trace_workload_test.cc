/**
 * @file
 * Tests for the trace-driven workload: the text format and its
 * parser, and replay through TraceWorkloadSource.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/fixed_priority.hh"
#include "experiment/workload_registry.hh"
#include "support/schedule_recorder.hh"
#include "support/temp_path.hh"
#include "workload/scenario.hh"
#include "workload/workload_source.hh"

namespace busarb {
namespace {

constexpr Tick U = kTicksPerUnit;

TEST(RequestTraceTest, AppendTracksMaxAgent)
{
    RequestTrace trace;
    EXPECT_TRUE(trace.empty());
    trace.append(0, 3);
    trace.append(U, 7);
    trace.append(U, 2, true);
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.maxAgent(), 7);
    EXPECT_TRUE(trace.entries()[2].priority);
}

TEST(RequestTraceTest, ParseRoundTrip)
{
    RequestTrace original;
    original.append(0, 1);
    original.append(unitsToTicks(0.5), 2, true);
    original.append(unitsToTicks(2.25), 3);
    std::stringstream buffer;
    original.write(buffer);
    RequestTrace parsed;
    std::string error;
    ASSERT_TRUE(RequestTrace::parse(buffer, parsed, error)) << error;
    ASSERT_EQ(parsed.size(), original.size());
    for (std::size_t i = 0; i < parsed.size(); ++i)
        EXPECT_EQ(parsed.entries()[i], original.entries()[i]) << i;
}

TEST(RequestTraceTest, ParseSkipsCommentsAndBlankLines)
{
    std::istringstream is("# header\n\n0.5 1\n# mid comment\n1.5 2 p\n");
    RequestTrace trace;
    std::string error;
    ASSERT_TRUE(RequestTrace::parse(is, trace, error)) << error;
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.entries()[0].agent, 1);
    EXPECT_EQ(trace.entries()[1].agent, 2);
    EXPECT_TRUE(trace.entries()[1].priority);
}

/** @return parse()'s error for `text`, or "" when it parses. */
std::string
parseError(const std::string &text)
{
    std::istringstream is(text);
    RequestTrace trace;
    trace.append(0, 9); // must survive a failed parse
    std::string error;
    if (RequestTrace::parse(is, trace, error))
        return "";
    EXPECT_EQ(trace.size(), 1u) << "a failed parse changed its output";
    return error;
}

TEST(RequestTraceTest, ParseRejectsMalformedInput)
{
    EXPECT_EQ(parseError("1.0\n"), "line 1: missing agent id");
    EXPECT_EQ(parseError("0 1\n1.0 2 x\n"),
              "line 2: unexpected token 'x'");
    EXPECT_EQ(parseError("1.0 2 p p\n"), "line 1: unexpected token 'p'");
    EXPECT_EQ(parseError("2.0 1\n1.0 2\n"),
              "line 2: timestamps must be non-decreasing");
    EXPECT_EQ(parseError("1 x\n"), "line 1: bad agent id 'x'");
    EXPECT_EQ(parseError("1 0\n"), "line 1: bad agent id '0'");
    EXPECT_EQ(parseError("1 4294967297\n"),
              "line 1: bad agent id '4294967297'");
    // A time must be finite, >= 0 and within the tick clock: "-1" used to
    // run at tick 0, "1e300" overflowed the tick cast, and "nan" was
    // skipped like a blank line.
    for (const char *bad : {"x", "-1", "nan", "inf", "1e300", "1.5s"}) {
        EXPECT_EQ(parseError(std::string("# c\n") + bad + " 1\n"),
                  std::string("line 2: time must be a number in [0, "
                              "9.22337e+12) units, got '") +
                      bad + "'")
            << bad;
    }
    // The largest time the tick clock holds still parses.
    EXPECT_EQ(parseError("9e12 1\n"), "");

    // A binary capture cut inside its protocol name: the trace source's
    // validation reports it, naming the file, instead of throwing.
    const std::string path = testTempPath("trace.bin");
    {
        std::ofstream out(path, std::ios::binary);
        out << "BATR\x01\x02\x05pr";
    }
    ScenarioConfig config = equalLoadScenario(4, 1.0, 1.0);
    config.workloadSpec = "trace:file=" + path + ",format=binary";
    config.numBatches = 1;
    config.batchSize = 1;
    config.warmup = 0;
    const std::string error = validateWorkloadRun(config);
    std::remove(path.c_str());
    EXPECT_EQ(error, "trace file '" + path +
                         "': corrupt or truncated trace: malformed binary "
                         "trace: truncated protocol name");
}

TEST(RequestTraceTest, PoissonGeneratorProperties)
{
    const auto trace =
        RequestTrace::poisson(8, /*total_rate=*/2.0, /*length=*/500.0,
                              Rng(42));
    // ~1000 expected arrivals.
    EXPECT_GT(trace.size(), 800u);
    EXPECT_LT(trace.size(), 1200u);
    EXPECT_LE(trace.maxAgent(), 8);
    Tick prev = 0;
    for (const auto &e : trace.entries()) {
        EXPECT_GE(e.when, prev);
        prev = e.when;
        EXPECT_GE(e.agent, 1);
    }
}

TEST(TraceWorkloadTest, ReplaysExactSchedule)
{
    EventQueue queue;
    Bus bus(queue, std::make_unique<FixedPriorityProtocol>(), 4, {});
    test::ScheduleRecorder recorder;
    bus.setObserver(&recorder);
    RequestTrace trace;
    trace.append(0, 2);
    trace.append(unitsToTicks(0.2), 4);
    trace.append(unitsToTicks(5.0), 1);
    TraceWorkloadSource source(queue, bus, trace);
    source.start();
    queue.run();
    EXPECT_EQ(source.issued(), 3u);
    EXPECT_EQ(source.issuedBy(4), 1u);
    ASSERT_EQ(recorder.grants().size(), 3u);
    // Agent 2 arrives alone (pass frozen at t=0), then 4, then 1.
    EXPECT_EQ(recorder.grants()[0].agent, 2);
    EXPECT_EQ(recorder.grants()[1].agent, 4);
    EXPECT_EQ(recorder.grants()[2].agent, 1);
    EXPECT_EQ(recorder.grants()[2].issued, unitsToTicks(5.0));
}

TEST(TraceWorkloadTest, IdenticalTraceIdenticalArrivalsAcrossProtocols)
{
    // The point of trace-driven evaluation: every protocol sees the
    // exact same arrival sequence.
    const auto trace = RequestTrace::poisson(4, 0.8, 200.0, Rng(7));
    std::vector<Tick> first_issued;
    for (int run = 0; run < 2; ++run) {
        EventQueue queue;
        Bus bus(queue, std::make_unique<FixedPriorityProtocol>(), 4, {});
        test::ScheduleRecorder recorder;
        bus.setObserver(&recorder);
        TraceWorkloadSource source(queue, bus, trace);
        source.start();
        queue.run();
        std::vector<Tick> issued;
        for (const auto &g : recorder.grants())
            issued.push_back(g.issued);
        std::sort(issued.begin(), issued.end());
        if (run == 0)
            first_issued = issued;
        else
            EXPECT_EQ(issued, first_issued);
    }
}

TEST(TraceWorkloadDeathTest, RejectsTraceBeyondBusAgents)
{
    EventQueue queue;
    Bus bus(queue, std::make_unique<FixedPriorityProtocol>(), 2, {});
    RequestTrace trace;
    trace.append(0, 5);
    EXPECT_DEATH(TraceWorkloadSource(queue, bus, trace), "only");
}

} // namespace
} // namespace busarb
