/**
 * @file
 * Sweep-cell assembly tests: the canonical cell enumeration (cell
 * index -> load x protocol), tuning-knob wiring into ScenarioConfig,
 * the canonical tuning key text, and buildSweepGrid's equivalence to
 * per-cell assembly.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "experiment/observer_flags.hh"
#include "experiment/sweep_cells.hh"
#include "experiment/table.hh"

namespace busarb {
namespace {

ScenarioSpec
gridSpec()
{
    ScenarioSpec spec;
    spec.agents = 6;
    spec.loadTokens = {"0.25", "1", "2.5"};
    spec.protocolSpecs = {"rr1", "fcfs1"};
    return spec;
}

TEST(SweepCells, CellEnumerationIsLoadsOuterProtocolsInner)
{
    const ScenarioSpec spec = gridSpec();
    ASSERT_EQ(spec.cellCount(), 6u);
    // Row-emission order: loads outer, protocols inner. This order is
    // the identity cells carry in checkpoint manifests, so it may
    // never change.
    const char *expected[][2] = {
        {"0.25", "rr1"}, {"0.25", "fcfs1"}, {"1", "rr1"},
        {"1", "fcfs1"},  {"2.5", "rr1"},    {"2.5", "fcfs1"},
    };
    for (std::size_t cell = 0; cell < spec.cellCount(); ++cell) {
        EXPECT_EQ(spec.cellLoadToken(cell), expected[cell][0])
            << "cell " << cell;
        EXPECT_EQ(spec.cellProtocolSpec(cell), expected[cell][1])
            << "cell " << cell;
    }
}

TEST(SweepCells, EmptyAxesYieldNoCells)
{
    ScenarioSpec spec;
    spec.loadTokens.clear();
    spec.protocolSpecs = {"rr1"};
    EXPECT_EQ(spec.cellCount(), 0u);
    spec.loadTokens = {"1"};
    spec.protocolSpecs.clear();
    EXPECT_EQ(spec.cellCount(), 0u);
}

TEST(SweepCells, TuningKnobsReachTheCellConfig)
{
    const ScenarioSpec spec = gridSpec();
    SweepTuning tuning;
    tuning.captureTrace = true;
    tuning.fairness = true;
    tuning.fairnessWindow = 12.5;
    tuning.bypassBound = 4;
    tuning.health = true;
    tuning.healthRelHw = 0.02;
    tuning.healthLag1 = 0.4;
    tuning.snapshotEvery = 7.0;
    tuning.healthSnapshots = true;

    const ScenarioConfig config =
        sweepCellConfig(spec, tuning, "sweep_cells_test", 2);
    const ObserverConfig &o = config.observe;
    EXPECT_TRUE(o.captureTrace);
    EXPECT_TRUE(o.fairness);
    EXPECT_EQ(o.fairnessWindow, 12.5);
    EXPECT_EQ(o.bypassBound, 4);
    EXPECT_TRUE(o.health);
    EXPECT_EQ(o.healthRelHw, 0.02);
    EXPECT_EQ(o.healthLag1, 0.4);
    EXPECT_EQ(o.snapshotEvery, 7.0);
    EXPECT_TRUE(o.healthSnapshots);
    // Sweeps always run the calendar kernel; only in-process
    // differential tests select the reference heap.
    EXPECT_EQ(config.eventQueuePolicy, EventQueuePolicy::kCalendar);
}

TEST(SweepCells, BuildSweepGridMatchesPerCellAssembly)
{
    const ScenarioSpec spec = gridSpec();
    const SweepTuning tuning;
    const auto grid = buildSweepGrid(spec, tuning, "sweep_cells_test");
    ASSERT_EQ(grid.size(), spec.cellCount());
    for (std::size_t cell = 0; cell < grid.size(); ++cell) {
        const GridJob job =
            sweepCellJob(spec, tuning, "sweep_cells_test", cell);
        EXPECT_EQ(grid[cell].spec, job.spec) << "cell " << cell;
        EXPECT_EQ(grid[cell].config.totalOfferedLoad(),
                  job.config.totalOfferedLoad())
            << "cell " << cell;
        EXPECT_EQ(grid[cell].spec, spec.cellProtocolSpec(cell));
    }
}

TEST(SweepCells, GridTablesReadTheCellEachColumnNames)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(parseScenarioSpec(
        "[workload]\nfamily = unequal\nagents = 4\nunequal-factor = 2\n"
        "[run]\nbatches = 2\nbatch-size = 50\n"
        "[sweep]\nloads = 0.5 1\nprotocols = rr1 fcfs1\n"
        "[table]\ntitle = By load\ncolumn = Load = offered @ fcfs1\n"
        "column = U = utilization @ fcfs1\n"
        "column = r = ratio(1,2) @ rr1\n"
        "[table]\ntitle = By protocol\nrows = protocols\n"
        "column = W = wait_mean @ 1\ncolumn = retry = retry_fraction @ 0.5\n",
        spec, error))
        << error;
    const auto results = runScenarioGrid(
        buildSweepGrid(spec, SweepTuning{}, "sweep_cells_test"), 1);
    std::ostringstream os;
    printGridTables(spec, results, os);

    // Cells are rows-outer: (0.5, rr1) (0.5, fcfs1) (1, rr1) (1, fcfs1).
    std::ostringstream expected;
    expected << "\n=== By load ===\n\n";
    TextTable by_load({"load", "Load", "U", "r"});
    for (std::size_t row = 0; row < 2; ++row) {
        by_load.addRow({spec.loadTokens[row],
                        formatFixed(spec.configForLoad(spec.loadTokens[row])
                                        .totalOfferedLoad()),
                        formatFixed(results[2 * row + 1].utilization().value,
                                    3),
                        formatEstimate(results[2 * row].throughputRatio(1, 2))});
    }
    by_load.print(expected);
    expected << "\n=== By protocol ===\n\n";
    TextTable by_protocol({"protocol", "W", "retry"});
    for (std::size_t p = 0; p < 2; ++p) {
        by_protocol.addRow(
            {spec.protocolSpecs[p], formatEstimate(results[2 + p].meanWait()),
             formatFixed(results[p].retryPassFraction().value, 4)});
    }
    by_protocol.print(expected);
    EXPECT_EQ(os.str(), expected.str());
    EXPECT_NE(os.str().find("  0.5   0.62"), std::string::npos) << os.str();
}

TEST(SweepCells, OverlapQuantitiesReadTheTwoCellsTheyName)
{
    ScenarioSpec spec;
    std::string error;
    ASSERT_TRUE(parseScenarioSpec(
        "[workload]\nagents = 6\n[run]\nbatches = 2\nbatch-size = 400\n"
        "[sweep]\nloads = 1.5 2.5\nprotocols = rr1 aap1 fcfs1\n"
        "[table]\ntitle = T\n"
        "column = V = overlap(rr1,fcfs1) @ aap1\n"
        "column = swapped = overlap(fcfs1,rr1) @ aap1\n"
        "column = residual = overlap_residual(rr1,fcfs1) @ aap1\n"
        "column = prod = overlap_productivity(rr1,fcfs1) @ fcfs1\n",
        spec, error))
        << error;
    const auto results = runScenarioGrid(
        buildSweepGrid(spec, SweepTuning{}, "sweep_cells_test"), 1);
    std::ostringstream os;
    printGridTables(spec, results, os);

    // Row r holds rr1, aap1 and fcfs1 in cells 3r, 3r + 1 and 3r + 2.
    // V reads the rr1 and fcfs1 cells of the row; the residual and the
    // productivity read the column's own cell at that V.
    TextTable table({"load", "V", "swapped", "residual", "prod"});
    for (std::size_t row = 0; row < 2; ++row) {
        const ScenarioResult &rr = results[3 * row];
        const ScenarioResult &aap = results[3 * row + 1];
        const ScenarioResult &fcfs = results[3 * row + 2];
        const double v = overlapValue(rr.waitHistogram, fcfs.waitHistogram);
        const double swapped =
            overlapValue(fcfs.waitHistogram, rr.waitHistogram);
        EXPECT_NE(v, swapped) << "row " << row;
        const double think = spec.configForLoad(spec.loadTokens[row])
                                 .agents.front()
                                 .meanInterrequest;
        table.addRow({spec.loadTokens[row], formatFixed(v, 0),
                      formatFixed(swapped, 0),
                      formatFixed(aap.waitHistogram.expectedExcess(v)),
                      formatFixed((think + fcfs.waitHistogram.expectedMin(v)) /
                                  (think + fcfs.meanWait().value))});
    }
    std::ostringstream expected;
    expected << "\n=== T ===\n\n";
    table.print(expected);
    EXPECT_EQ(os.str(), expected.str());
}

TEST(SweepCells, CanonicalKeyIsStableText)
{
    // The key is hashed into the sweep fingerprint; its exact text is
    // load-bearing for checkpoint compatibility across versions.
    EXPECT_EQ(observerKey(SweepTuning{}),
              "trace=0;fairness=0;fairness-window=50;bypass-bound=0;"
              "health=0;health-rel-hw=0.05;health-lag1=0.3;"
              "snapshot-every=0;health-snapshots=0");

    SweepTuning tuning;
    tuning.captureTrace = true;
    tuning.snapshotEvery = 2.5;
    EXPECT_EQ(observerKey(tuning),
              "trace=1;fairness=0;fairness-window=50;bypass-bound=0;"
              "health=0;health-rel-hw=0.05;health-lag1=0.3;"
              "snapshot-every=2.5;health-snapshots=0");
}

} // namespace
} // namespace busarb
