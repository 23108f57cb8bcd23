/**
 * @file
 * Tests for declarative scenario specs: the INI-subset parser, the
 * canonical format() round trip, the single configForLoad() expansion
 * path shared by flags and files, and the error paths with their line
 * numbers and did-you-mean hints.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/cli.hh"
#include "experiment/runner.hh"
#include "experiment/scenario_spec.hh"
#include "workload/scenario.hh"
#include "support/temp_path.hh"

namespace busarb {
namespace {

ScenarioSpec
parseOk(const std::string &text)
{
    ScenarioSpec spec;
    std::string error;
    EXPECT_TRUE(parseScenarioSpec(text, spec, error))
        << text << ": " << error;
    return spec;
}

std::string
parseError(const std::string &text)
{
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(parseScenarioSpec(text, spec, error)) << text;
    return error;
}

/** Declare busarb_sweep's scenario flags, as the tool does. */
void
addSweepFlags(ArgParser &parser)
{
    parser.addStringFlag("grid", "", "");
    parser.addStringFlag("protocols", "rr1,fcfs1", "");
    parser.addStringFlag("loads", "0.25,0.5,1,1.5,2,2.5,5,7.5", "");
    parser.addStringFlag("source", "closed", "");
    parser.addIntFlag("agents", 10, "");
    parser.addDoubleFlag("cv", 1.0, "");
    parser.addIntFlag("batches", 10, "");
    parser.addIntFlag("batch-size", 8000, "");
}

/**
 * @return The spec scenarioSpecFromFlags builds from `args`, with
 *         busarb_sim's scenario flags, or busarb_sweep's when `sweep`.
 */
ScenarioSpec
specFromFlags(std::vector<const char *> args, bool sweep = false)
{
    ArgParser parser("prog", "test");
    if (sweep)
        addSweepFlags(parser);
    else
        addScenarioFlags(parser);
    args.insert(args.begin(), "prog");
    EXPECT_TRUE(
        parser.parse(static_cast<int>(args.size()), args.data()));
    return scenarioSpecFromFlags("prog", parser);
}

TEST(ScenarioSpecParseTest, EmptyTextYieldsDefaults)
{
    const ScenarioSpec spec = parseOk("");
    EXPECT_EQ(spec.family, "equal");
    EXPECT_EQ(spec.agents, 10);
    EXPECT_DOUBLE_EQ(spec.cv, 1.0);
    EXPECT_EQ(spec.maxOutstanding, 1);
    EXPECT_EQ(spec.batches, 10);
    EXPECT_EQ(spec.batchSize, 8000);
    EXPECT_EQ(spec.resolvedWarmup(), 8000u);
    EXPECT_EQ(spec.seed, 0x5eedcafeu);
    EXPECT_DOUBLE_EQ(spec.confidence, 0.90);
    EXPECT_TRUE(spec.loadTokens.empty());
    EXPECT_TRUE(spec.protocolSpecs.empty());
}

TEST(ScenarioSpecParseTest, CommentsAndBlankLinesAreIgnored)
{
    const ScenarioSpec spec = parseOk("# heading comment\n"
                                      "\n"
                                      "[workload]\n"
                                      "; another comment style\n"
                                      "agents = 16\n"
                                      "  cv = 2  \n");
    EXPECT_EQ(spec.agents, 16);
    EXPECT_DOUBLE_EQ(spec.cv, 2.0);
}

TEST(ScenarioSpecParseTest, LoadRangesExpandInclusively)
{
    const ScenarioSpec spec =
        parseOk("[sweep]\nloads = 0.5:2:0.5 5\n");
    EXPECT_EQ(spec.loadTokens,
              (std::vector<std::string>{"0.5", "1", "1.5", "2", "5"}));
    // Each value is lo + i * step at the inputs' decimals; repeated
    // addition used to print 0.7999999999999999 and run load 1 as
    // 0.9999999999999999.
    EXPECT_EQ(parseOk("[sweep]\nloads = 0.7:1.2:0.1\n").loadTokens,
              (std::vector<std::string>{"0.7", "0.8", "0.9", "1", "1.1",
                                        "1.2"}));
    EXPECT_EQ(parseOk("[sweep]\nloads = 0.1:0.3:0.1\n").loadTokens,
              (std::vector<std::string>{"0.1", "0.2", "0.3"}));
    EXPECT_EQ(parseOk("[sweep]\nloads = 0.25:1:0.25\n").loadTokens,
              (std::vector<std::string>{"0.25", "0.5", "0.75", "1"}));
    EXPECT_EQ(parseOk("[sweep]\ncv = 1e-2:3e-2:1e-2\n"
                      "[workload]\nload = 1\n").rowTokens,
              (std::vector<std::string>{"0.01", "0.02", "0.03"}));
}

TEST(ScenarioSpecParseTest, CvAndArbOverheadAxesSetEachRow)
{
    const ScenarioSpec spec = parseOk("[workload]\nagents = 6\nload = 2\n"
                                      "[sweep]\ncv = 0:1:0.5\n"
                                      "protocols = rr1 fcfs1\n");
    EXPECT_EQ(spec.rowKey, "cv");
    EXPECT_EQ(spec.rowAxis(), (std::vector<std::string>{"0", "0.5", "1"}));
    ASSERT_EQ(spec.cellCount(), 6u);
    EXPECT_EQ(spec.cellLabel(3), "cv=0.5");
    EXPECT_EQ(spec.cellProtocolSpec(3), "fcfs1");
    const ScenarioConfig config = spec.configForLoad("0.5");
    const ScenarioConfig expected = equalLoadScenario(6, 2.0, 0.5);
    for (std::size_t i = 0; i < config.agents.size(); ++i) {
        EXPECT_DOUBLE_EQ(config.agents[i].cv, 0.5);
        EXPECT_DOUBLE_EQ(config.agents[i].meanInterrequest,
                         expected.agents[i].meanInterrequest);
    }

    const ScenarioSpec overhead =
        parseOk("[sweep]\nloads = 0.5\narb-overhead = 0 0.25\n");
    EXPECT_EQ(overhead.cellCount(), 0u); // no protocols yet
    EXPECT_EQ(overhead.rowName(), "arb-overhead");
    EXPECT_DOUBLE_EQ(
        overhead.configForLoad("0.25").bus.arbitrationOverhead, 0.25);
    EXPECT_DOUBLE_EQ(overhead.configForLoad("0.25").totalOfferedLoad(),
                     0.5);

    // The worst-case workload fixes its own rates, so its only axis
    // is cv.
    const ScenarioSpec worst = parseOk("[workload]\nfamily = worst-case\n"
                                       "[sweep]\ncv = 0 0.25\n");
    const ScenarioConfig w = worst.configForLoad("0.25");
    const ScenarioConfig w_expected = worstCaseRrScenario(10, 0.25);
    for (std::size_t i = 0; i < w.agents.size(); ++i)
        EXPECT_DOUBLE_EQ(w.agents[i].meanInterrequest,
                         w_expected.agents[i].meanInterrequest);
}

TEST(ScenarioSpecParseTest, BatchSizeAxisSetsEachRowAndItsWarmup)
{
    const ScenarioSpec spec =
        parseOk("[workload]\nload = 2\n[sweep]\n"
                "batch-size = 250 1000:3000:1000\nprotocols = rr1\n");
    EXPECT_EQ(spec.rowName(), "batch-size");
    EXPECT_EQ(spec.rowAxis(),
              (std::vector<std::string>{"250", "1000", "2000", "3000"}));
    EXPECT_EQ(spec.cellLabel(1), "batch-size=1000");
    // Each row warms up for its own batch size.
    const ScenarioConfig config = spec.configForLoad("1000");
    EXPECT_EQ(config.batchSize, 1000u);
    EXPECT_EQ(config.warmup, 1000u);
    EXPECT_DOUBLE_EQ(config.totalOfferedLoad(), 2.0);
    // [run] keeps neither the swept key nor the warm-up that follows it.
    const std::string canonical = spec.format();
    EXPECT_EQ(parseOk(canonical).format(), canonical);
    EXPECT_NE(canonical.find("batch-size = 250 1000 2000 3000\n"),
              std::string::npos);
    EXPECT_EQ(canonical.find("batch-size = 8000"), std::string::npos);
    EXPECT_EQ(canonical.find("warmup"), std::string::npos);

    // A [run] warmup holds for every row, and survives the round trip.
    const ScenarioSpec warm =
        parseOk("[workload]\nload = 2\n[run]\nwarmup = 5\n[sweep]\n"
                "batch-size = 250 1000\n");
    EXPECT_EQ(warm.configForLoad("1000").warmup, 5u);
    EXPECT_EQ(parseOk(warm.format()).configForLoad("250").warmup, 5u);
}

TEST(ScenarioSpecParseTest, SeedAcceptsHex)
{
    EXPECT_EQ(parseOk("[run]\nseed = 0x10\n").seed, 16u);
    EXPECT_EQ(parseOk("[run]\nseed = 12345\n").seed, 12345u);
    EXPECT_EQ(parseOk("[run]\nseed = 0\n").seed, 0u);
    EXPECT_EQ(parseOk("[run]\nseed = 18446744073709551615\n").seed,
              18446744073709551615u);
    EXPECT_EQ(parseOk("[run]\nseed = 0xffffffffffffffff\n").seed,
              18446744073709551615u);
}

TEST(ScenarioSpecParseTest, WarmupDefaultsToBatchSize)
{
    EXPECT_EQ(parseOk("[run]\nbatch-size = 4000\n").resolvedWarmup(),
              4000u);
    EXPECT_EQ(parseOk("[run]\nbatch-size = 4000\nwarmup = 0\n")
                  .resolvedWarmup(),
              0u);
}

TEST(ScenarioSpecParseTest, ListKeysAccumulateAcrossLines)
{
    const ScenarioSpec spec = parseOk("[protocol]\n"
                                      "spec = rr1\n"
                                      "spec = fcfs1:window=0.05\n"
                                      "[sweep]\n"
                                      "loads = 1\n"
                                      "loads = 2 3\n");
    EXPECT_EQ(spec.protocolSpecs,
              (std::vector<std::string>{"rr1", "fcfs1:window=0.05"}));
    EXPECT_EQ(spec.loadTokens,
              (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ScenarioSpecFormatTest, ParseFormatRoundTrips)
{
    const ScenarioSpec spec = parseOk("[workload]\n"
                                      "family = unequal\n"
                                      "agents = 8\n"
                                      "unequal-factor = 4\n"
                                      "cv = 2\n"
                                      "max-outstanding = 4\n"
                                      "[run]\n"
                                      "batches = 5\n"
                                      "batch-size = 400\n"
                                      "seed = 0x10\n"
                                      "[sweep]\n"
                                      "loads = 1 1.5\n"
                                      "protocols = rr1 wrr:weights=4/1\n");
    const std::string canonical = spec.format();
    const ScenarioSpec again = parseOk(canonical);
    EXPECT_EQ(again.format(), canonical);
    EXPECT_NE(canonical.find("unequal-factor = 4"), std::string::npos);
    EXPECT_NE(canonical.find("seed = 16"), std::string::npos);
    EXPECT_NE(canonical.find("protocols = rr1 wrr:weights=4/1"),
              std::string::npos);
}

TEST(ScenarioSpecFormatTest, LoadAxisFormatIsPinned)
{
    // Shard directories hash this text, so a grid without a new axis
    // must keep formatting byte for byte.
    EXPECT_EQ(parseOk("[workload]\nagents = 30\n[sweep]\n"
                      "loads = 0.25 1\nprotocols = rr1 fcfs1\n")
                  .format(),
              "[workload]\nfamily = equal\nagents = 30\ncv = 1\n"
              "max-outstanding = 1\n\n[bus]\narb-overhead = 0.5\n"
              "settle-timing = false\nworst-case-settle = false\n\n"
              "[run]\nbatches = 10\nbatch-size = 8000\nwarmup = 8000\n"
              "seed = 1592642302\nconfidence = 0.9\n\n[sweep]\n"
              "loads = 0.25 1\nprotocols = rr1 fcfs1\n");
}

TEST(ScenarioSpecFormatTest, RowAxesRoundTripAndTablesStayOut)
{
    const std::string tables = "[table]\ntitle = T\n"
                               "column = W = wait_mean @ rr1\n";
    const ScenarioSpec cv = parseOk("[workload]\nfamily = worst-case\n"
                                    "[sweep]\ncv = 0 0.1:0.3:0.1\n"
                                    "protocols = rr1\n" + tables);
    const std::string canonical = cv.format();
    EXPECT_EQ(parseOk(canonical).format(), canonical);
    EXPECT_NE(canonical.find("cv = 0 0.1 0.2 0.3\n"), std::string::npos);
    // The swept key leaves [workload], and [table] never enters.
    EXPECT_EQ(canonical.find("cv = 1"), std::string::npos);
    EXPECT_EQ(canonical.find("table"), std::string::npos);

    const ScenarioSpec overhead =
        parseOk("[workload]\nload = 2\n[sweep]\narb-overhead = 0 1\n"
                "protocols = rr1\n" + tables);
    EXPECT_EQ(parseOk(overhead.format()).format(), overhead.format());
    EXPECT_EQ(overhead.format().find("arb-overhead = 0.5"),
              std::string::npos);
    // A grid's tables do not change its canonical text.
    EXPECT_EQ(parseOk("[sweep]\nloads = 1\nprotocols = rr1\n" + tables)
                  .format(),
              parseOk("[sweep]\nloads = 1\nprotocols = rr1\n").format());
}

TEST(ScenarioSpecFormatTest, FlagBuiltSpecMatchesEquivalentFile)
{
    // Between them, the three runs set every scenario flag of
    // busarb_sim and busarb_report to a value other than its default.
    // Flags are read as parsed: --seed 0100 is 100, --load 1.50 is 1.5.
    EXPECT_EQ(specFromFlags({"--agents", "6", "--load", "1.50", "--cv",
                             "0.50", "--unequal-factor", "2",
                             "--max-outstanding", "2", "--source",
                             "open:dist=mmpp", "--batches", "4",
                             "--batch-size", "300", "--warmup", "100",
                             "--seed", "0100", "--arb-overhead", "0.25",
                             "--settle-timing", "--worst-case-settle"})
                  .format(),
              parseOk("[workload]\nfamily = unequal\nagents = 6\n"
                      "cv = 0.5\nunequal-factor = 2\nmax-outstanding = 2\n"
                      "source = open:dist=mmpp\nload = 1.5\n"
                      "[bus]\narb-overhead = 0.25\nsettle-timing = true\n"
                      "worst-case-settle = true\n"
                      "[run]\nbatches = 4\nbatch-size = 300\n"
                      "warmup = 100\nseed = 100\n")
                  .format());
    // The --warmup default sets the warm-up.
    EXPECT_EQ(specFromFlags({"--agents", "8", "--load", "1",
                             "--hot-agents", "2", "--hot-factor", "3"})
                  .format(),
              parseOk("[workload]\nagents = 8\nhot-agents = 2\n"
                      "hot-factor = 3\nload = 1\n[run]\nwarmup = 8000\n")
                  .format());
    // Table 4.5's workload has no load axis, so --load's default is
    // not given.
    EXPECT_EQ(specFromFlags({"--worst-case", "--agents", "5", "--cv", "0"})
                  .format(),
              parseOk("[workload]\nfamily = worst-case\nagents = 5\n"
                      "cv = 0\n[run]\nwarmup = 8000\n")
                  .format());
}

TEST(ScenarioSpecFormatTest, SweepFlagBuiltSpecMatchesEquivalentFile)
{
    // Every scenario flag of busarb_sweep at a value other than its
    // default. Load tokens stay as written, and --loads takes ranges.
    EXPECT_EQ(specFromFlags({"--protocols", "rr1,fcfs1,aap1", "--loads",
                             "0.5,2.0,3:4:0.5", "--source",
                             "open:dist=mmpp", "--agents", "8", "--cv",
                             "0.50", "--batches", "3", "--batch-size",
                             "400"},
                            true)
                  .format(),
              parseOk("[workload]\nagents = 8\ncv = 0.5\n"
                      "source = open:dist=mmpp\n"
                      "[run]\nbatches = 3\nbatch-size = 400\n"
                      "[sweep]\nloads = 0.5 2.0 3:4:0.5\n"
                      "protocols = rr1 fcfs1 aap1\n")
                  .format());
    // Stray commas are skipped.
    EXPECT_EQ(specFromFlags({"--loads", "0.25,,0.5,2,"}, true).loadTokens,
              (std::vector<std::string>{"0.25", "0.5", "2"}));
    // The defaults.
    EXPECT_EQ(specFromFlags({}, true).format(),
              parseOk("[sweep]\nloads = 0.25 0.5 1 1.5 2 2.5 5 7.5\n"
                      "protocols = rr1 fcfs1\n")
                  .format());
    // A source without a load axis takes no default loads.
    EXPECT_EQ(specFromFlags({"--source", "trace:file=x.trace"}, true)
                  .format(),
              parseOk("[workload]\nsource = trace:file=x.trace\n"
                      "[sweep]\nprotocols = rr1 fcfs1\n")
                  .format());
}

TEST(ScenarioSpecConfigTest, EqualFamilyMatchesHandBuiltConfig)
{
    const ScenarioSpec spec = parseOk("[workload]\n"
                                      "agents = 6\n"
                                      "cv = 2\n"
                                      "max-outstanding = 3\n"
                                      "[bus]\n"
                                      "arb-overhead = 0.25\n"
                                      "[run]\n"
                                      "batches = 5\n"
                                      "batch-size = 400\n"
                                      "seed = 7\n"
                                      "confidence = 0.95\n");
    const ScenarioConfig config = spec.configForLoad("1.5");

    ScenarioConfig expected = equalLoadScenario(6, 1.5, 2.0);
    EXPECT_EQ(config.numAgents, expected.numAgents);
    ASSERT_EQ(config.agents.size(), expected.agents.size());
    for (std::size_t i = 0; i < config.agents.size(); ++i) {
        EXPECT_DOUBLE_EQ(config.agents[i].meanInterrequest,
                         expected.agents[i].meanInterrequest);
        EXPECT_DOUBLE_EQ(config.agents[i].cv, expected.agents[i].cv);
        EXPECT_EQ(config.agents[i].maxOutstanding, 3);
    }
    EXPECT_EQ(config.numBatches, 5);
    EXPECT_EQ(config.batchSize, 400u);
    EXPECT_EQ(config.warmup, 400u); // defaults to batch-size
    EXPECT_EQ(config.seed, 7u);
    EXPECT_DOUBLE_EQ(config.confidence, 0.95);
    EXPECT_DOUBLE_EQ(config.bus.arbitrationOverhead, 0.25);
}

TEST(ScenarioSpecConfigTest, UnequalFamilySplitsTheLoad)
{
    const ScenarioSpec spec = parseOk("[workload]\n"
                                      "family = unequal\n"
                                      "agents = 8\n"
                                      "unequal-factor = 4\n");
    const ScenarioConfig config = spec.configForLoad("1.5");
    const ScenarioConfig expected =
        unequalLoadScenario(8, 1.5 / 8, 4.0, 1.0);
    ASSERT_EQ(config.agents.size(), expected.agents.size());
    for (std::size_t i = 0; i < config.agents.size(); ++i)
        EXPECT_DOUBLE_EQ(config.agents[i].meanInterrequest,
                         expected.agents[i].meanInterrequest);
}

TEST(ScenarioSpecConfigTest, WorstCaseFamilyIgnoresLoadToken)
{
    const ScenarioSpec spec = parseOk("[workload]\n"
                                      "family = worst-case\n"
                                      "agents = 10\n");
    const ScenarioConfig config = spec.configForLoad("");
    const ScenarioConfig expected = worstCaseRrScenario(10, 1.0);
    ASSERT_EQ(config.agents.size(), expected.agents.size());
    for (std::size_t i = 0; i < config.agents.size(); ++i)
        EXPECT_DOUBLE_EQ(config.agents[i].meanInterrequest,
                         expected.agents[i].meanInterrequest);
}

TEST(ScenarioSpecConfigTest, WorstCaseSettleSelectsWorstCaseMode)
{
    const ScenarioSpec spec =
        parseOk("[bus]\nworst-case-settle = true\n");
    const ScenarioConfig config = spec.configForLoad("1");
    EXPECT_TRUE(config.bus.settleTiming);
    EXPECT_EQ(config.bus.settleMode, BusParams::SettleMode::kWorstCase);
}

TEST(ScenarioSpecErrorTest, ErrorsCarryLineNumbersAndHints)
{
    EXPECT_EQ(parseError("[workloads]\n"),
              "line 1: unknown section '[workloads]'; did you mean "
              "'workload'?");
    EXPECT_EQ(parseError("[workload]\nagent = 3\n"),
              "line 2: unknown key 'agent' in [workload]; did you mean "
              "'agents'?");
    EXPECT_EQ(parseError("agents = 3\n"),
              "line 1: key 'agents' outside any [section]");
    EXPECT_EQ(parseError("[workload\n"),
              "line 1: malformed section header '[workload'");
    EXPECT_EQ(parseError("[workload]\nwhat is this\n"),
              "line 2: expected 'key = value' or '[section]', got "
              "'what is this'");
}

TEST(ScenarioSpecErrorTest, ValuesAreValidated)
{
    EXPECT_EQ(parseError("[workload]\nagents = none\n"),
              "line 2: key 'agents' expects an integer, got 'none'");
    EXPECT_EQ(parseError("[workload]\nagents = 0\n"),
              "line 2: key 'agents' must be >= 1, got '0'");
    EXPECT_EQ(parseError("[workload]\ncv =\n"),
              "line 2: key 'cv' needs a value");
    // Not-a-number and infinite values used to abort the run.
    EXPECT_EQ(parseError("[workload]\ncv = nan\n"),
              "line 2: key 'cv' expects a number, got 'nan'");
    EXPECT_EQ(parseError("[bus]\narb-overhead = inf\n"),
              "line 2: key 'arb-overhead' expects a number, got 'inf'");
    // Past these bounds a pass or a think time overflows the tick
    // clock: an overhead of 1e13 ran as 0, and 1e12 or cv 1e155
    // panicked with an empty batch.
    for (const char *bad : {"1e12", "1e13", "1e300"}) {
        EXPECT_EQ(parseError(std::string("[bus]\narb-overhead = ") + bad +
                             "\n"),
                  std::string("line 2: key 'arb-overhead' must be <= "
                              "1000, got '") +
                      bad + "'");
    }
    EXPECT_EQ(parseError("[workload]\ncv = 1e155\n"),
              "line 2: key 'cv' must be <= 100, got '1e155'");
    EXPECT_EQ(parseError("[workload]\nload = nan\n"),
              "load nan over 10 agents is nan per agent; the per-agent "
              "load must be in (0, 1)");
    EXPECT_EQ(parseError("[bus]\nsettle-timing = yes\n"),
              "line 2: key 'settle-timing' expects true/false, got "
              "'yes'");
    EXPECT_EQ(parseError("[run]\nconfidence = 1.5\n"),
              "line 2: key 'confidence' must be in (0, 1), got '1.5'");
    // Only the levels studentTCritical knows; 0.8 used to run every
    // cell before the first interval estimate refused it.
    EXPECT_EQ(parseError("[run]\nconfidence = 0.8\n"),
              "line 2: key 'confidence' must be 0.90, 0.95 or 0.99, got "
              "'0.8'");
    EXPECT_EQ(parseError("[run]\nseed = -1\n"),
              "line 2: key 'seed' must be >= 0, got '-1'");
    // Seeds are decimal or 0x hex within uint64. Octal used to slip
    // through strtoull's base 0 ("0100" read as 64, while "09" was
    // refused), so a leading zero is refused outright.
    for (const char *bad :
         {"0100", "09", "00", "18446744073709551616",
          "99999999999999999999", "0x10000000000000000", "0x", "+5",
          "0X10", "0x-1", "1e3"}) {
        EXPECT_EQ(parseError(std::string("[run]\nseed = ") + bad + "\n"),
                  std::string("line 2: key 'seed' expects an unsigned "
                              "integer, got '") +
                      bad + "'")
            << bad;
    }
    EXPECT_EQ(parseError("[workload]\nagents = 3\nagents = 4\n"),
              "line 3: duplicate key 'agents' in [workload]");

    // Integer keys take the range of their field; these used to be cast
    // to int, so agents = 4294967306 ran 10 agents.
    for (const char *key : {"agents", "max-outstanding", "hot-agents"}) {
        EXPECT_EQ(parseError(std::string("[workload]\n") + key +
                             " = 4294967306\n"),
                  std::string("line 2: key '") + key +
                      "' must be <= 2147483647, got '4294967306'");
    }
    EXPECT_EQ(parseError("[run]\nbatches = 4294967297\n"),
              "line 2: key 'batches' must be <= 2147483647, got "
              "'4294967297'");
    EXPECT_EQ(parseError("[run]\nbatch-size = 99999999999999999999\n"),
              "line 2: key 'batch-size' expects an integer, got "
              "'99999999999999999999'");
    EXPECT_EQ(parseError("[run]\nwarmup = 9223372036854775808\n"),
              "line 2: key 'warmup' expects an integer, got "
              "'9223372036854775808'");
    // The top of each range still parses.
    EXPECT_EQ(parseOk("[run]\nbatches = 2147483647\n").batches,
              2147483647);
    EXPECT_EQ(parseOk("[run]\nbatch-size = 4294967306\n").batchSize,
              4294967306L);
}

TEST(ScenarioSpecErrorTest, SweepAxesAreValidated)
{
    EXPECT_EQ(parseError("[sweep]\nloads = fast\n"),
              "line 2: bad load 'fast'");
    EXPECT_EQ(parseError("[sweep]\nloads = 2:1:0.5\n"),
              "line 2: bad load range '2:1:0.5' (need step > 0 and "
              "hi >= lo)");
    EXPECT_EQ(parseError("[protocol]\nspec = rr9\n"),
              "line 2: bad protocol spec 'rr9': unknown protocol key "
              "'rr9'; did you mean 'rr1'?");
}

TEST(ScenarioSpecErrorTest, RowAxesAreValidated)
{
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\ncv = 0 -1\n"),
              "line 4: key 'cv' must be finite and >= 0, got '-1'");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\n"
                         "arb-overhead = -1:1:0.5\n"),
              "line 4: key 'arb-overhead' must be finite and >= 0, got "
              "'-1'");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\ncv = 1 nan\n"),
              "line 4: key 'cv' must be finite and >= 0, got 'nan'");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\ncv = 1 101\n"),
              "line 4: key 'cv' must be <= 100, got '101'");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\n"
                         "arb-overhead = 0 2000\n"),
              "line 4: key 'arb-overhead' must be <= 1000, got '2000'");
    EXPECT_EQ(parseError("[sweep]\nloads = 0.001:1e9:0.001\n"),
              "line 2: bad load range '0.001:1e9:0.001' (more than 10000 "
              "values)");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\ncv = 0:1\n"),
              "line 4: bad cv range '0:1' (expected lo:hi:step)");
    // One row axis per grid.
    EXPECT_EQ(parseError("[sweep]\nloads = 1 2\ncv = 0 1\n"),
              "line 3: [sweep] sweeps both 'loads' and 'cv'; a grid has "
              "one row axis");
    EXPECT_EQ(parseError("[sweep]\ncv = 0 1\nloads = 1 2\n"),
              "line 3: [sweep] sweeps both 'loads' and 'cv'; a grid has "
              "one row axis");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\ncv = 0 1\n"
                         "arb-overhead = 0\n"),
              "line 5: [sweep] sweeps both 'cv' and 'arb-overhead'; a grid "
              "has one row axis");
    EXPECT_EQ(parseError("[workload]\ncv = 2\nload = 1\n[sweep]\n"
                         "cv = 0 1\n"),
              "line 5: key 'cv' is swept in [sweep]; drop it from "
              "[workload]");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\n"
                         "arb-overhead = 0 1\n[bus]\narb-overhead = 2\n"),
              "line 6: key 'arb-overhead' is swept in [sweep]; drop it "
              "from [bus]");
    EXPECT_EQ(parseError("[sweep]\narb-overhead = 0 1\n"),
              "sweeping arb-overhead needs the one load every row runs at "
              "([workload] load)");
    EXPECT_EQ(parseError("[workload]\nfamily = worst-case\n[sweep]\n"
                         "loads = 1 2\n"),
              "family 'worst-case' takes no loads (the Table 4.5 "
              "workload fixes its own rates)");
}

TEST(ScenarioSpecErrorTest, TablesAreCheckedAtParse)
{
    const std::string grid = "[sweep]\nloads = 1 2\nprotocols = rr1 fcfs1\n"
                             "[table]\ntitle = T\n";
    // Columns resolve against the catalogue and the axes, wherever
    // [sweep] sits in the file.
    EXPECT_EQ(parseOk(grid + "column = W = wait_mean @ fcfs1\n")
                  .tables.front()
                  .columns.front()
                  .estimate->key,
              std::string("wait_mean"));
    parseOk("[table]\ntitle = T\nrows = protocols\n"
            "column = Load = offered @ 2\n"
            "column = r = ratio(10,1) @ 1\n"
            "[sweep]\nloads = 1 2\nprotocols = rr1\n");
    EXPECT_EQ(parseError(grid + "column = W = wait_men @ rr1\n"),
              "line 6: key 'column': unknown quantity 'wait_men'; did you "
              "mean 'wait_mean'?");
    EXPECT_EQ(parseError(grid + "column = r = ratio(11,1) @ rr1\n"),
              "line 6: key 'column': ratio(11,1) needs agents in 1..10");
    EXPECT_EQ(parseError(grid + "column = r = ratio(0,1) @ rr1\n"),
              "line 6: key 'column': ratio(0,1) needs agents in 1..10");
    EXPECT_NE(parseError(grid + "column = r = ratio(99999999999999999999,1)"
                                " @ rr1\n")
                  .find("unknown quantity"),
              std::string::npos);
    EXPECT_EQ(parseError(grid + "column = W = wait_mean @ rr2\n"),
              "line 6: key 'column': 'rr2' is not in [sweep] protocols");
    EXPECT_EQ(parseError(grid + "rows = protocols\n"
                                "column = W = wait_mean @ 3\n"),
              "line 7: key 'column': '3' is not on the loads axis");
    EXPECT_EQ(parseError(grid),
              "line 4: [table] needs a 'title' and at least one 'column'");
    EXPECT_EQ(parseError(grid + "column = W = wait_mean @ rr1\n[table]\n"
                                "column = W = wait_mean @ rr1\n"),
              "line 7: [table] needs a 'title' and at least one 'column'");
    EXPECT_EQ(parseError(grid + "column = W wait_mean rr1\n"),
              "line 6: key 'column' expects 'header = quantity @ cell', "
              "got 'W wait_mean rr1'");
    EXPECT_EQ(parseError(grid + "rows = loads\n"),
              "line 6: key 'rows' expects 'protocols' (rows run along the "
              "row axis by default), got 'loads'");
    EXPECT_EQ(parseError(grid + "title = U\n"),
              "line 6: duplicate key 'title' in [table]");
    EXPECT_EQ(parseError(grid + "colum = W = wait_mean @ rr1\n"),
              "line 6: unknown key 'colum' in [table]; did you mean "
              "'column'?");
}

TEST(ScenarioSpecErrorTest, BatchSizeAxisIsValidated)
{
    EXPECT_EQ(parseError("[workload]\nload = 2\n[sweep]\nbatch-size = 0\n"),
              "line 4: key 'batch-size' must be >= 1, got '0'");
    EXPECT_EQ(parseError("[workload]\nload = 2\n[sweep]\n"
                         "batch-size = 100 1.5\n"),
              "line 4: key 'batch-size' expects an integer, got '1.5'");
    EXPECT_EQ(parseError("[workload]\nload = 2\n[sweep]\n"
                         "batch-size = 0:200:100\n"),
              "line 4: key 'batch-size' must be >= 1, got '0'");
    // The run's batch size is the axis; whichever line comes second
    // is the error.
    EXPECT_EQ(parseError("[workload]\nload = 2\n[run]\nbatch-size = 100\n"
                         "[sweep]\nbatch-size = 250 1000\n"),
              "line 6: key 'batch-size' is swept in [sweep]; drop it from "
              "[run]");
    EXPECT_EQ(parseError("[workload]\nload = 2\n[sweep]\n"
                         "batch-size = 250 1000\n[run]\nbatch-size = 100\n"),
              "line 6: key 'batch-size' is swept in [sweep]; drop it from "
              "[run]");
    EXPECT_EQ(parseError("[sweep]\nbatch-size = 250 1000\n"),
              "sweeping batch-size needs the one load every row runs at "
              "([workload] load)");
}

TEST(ScenarioSpecErrorTest, AxesRefuseRepeatedValues)
{
    // A repeated value would run its cells twice under one label.
    EXPECT_EQ(parseError("[sweep]\nloads = 1 2\nloads = 1\n"),
              "line 3: key 'loads' must not repeat a value, got '1'");
    EXPECT_EQ(parseError("[sweep]\nloads = 1 0.5:1.5:0.5\n"),
              "line 2: key 'loads' must not repeat a value, got '1'");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\ncv = 0 0.5 0\n"),
              "line 4: key 'cv' must not repeat a value, got '0'");
    EXPECT_EQ(parseError("[sweep]\nprotocols = rr1 fcfs1 rr1\n"),
              "line 2: key 'protocols' must not repeat a value, got 'rr1'");
    EXPECT_EQ(parseError("[workload]\nload = 1\n[sweep]\n"
                         "batch-size = 100 100\n"),
              "line 4: key 'batch-size' must not repeat a value, got "
              "'100'");
    // Values are compared as written, as the row labels are.
    parseOk("[sweep]\nloads = 1 1.0\n");
}

TEST(ScenarioSpecErrorTest, TableQuantitiesAreCheckedAtParse)
{
    using Kind = TableSpec::Column::Kind;
    const std::string grid = "[sweep]\nloads = 1 2\nprotocols = rr1 fcfs1\n"
                             "[table]\ntitle = T\n";
    const auto columns =
        parseOk(grid + "column = F = cdf(9.5) @ rr1\n"
                       "column = V = overlap(fcfs1,rr1) @ rr1\n"
                       "column = R = overlap_residual(rr1,fcfs1) @ fcfs1\n"
                       "column = P = overlap_productivity(rr1,fcfs1) @ rr1\n"
                       "column = L = wait_lag1 @ rr1\n"
                       "column = k = lines @ fcfs1\n")
            .tables.front()
            .columns;
    ASSERT_EQ(columns.size(), 6u);
    EXPECT_EQ(columns[0].kind, Kind::kCdf);
    EXPECT_EQ(columns[0].t, 9.5);
    EXPECT_EQ(columns[1].kind, Kind::kOverlap);
    EXPECT_EQ(columns[1].a, 1);
    EXPECT_EQ(columns[1].b, 0);
    EXPECT_EQ(columns[2].kind, Kind::kOverlapResidual);
    EXPECT_EQ(columns[3].kind, Kind::kOverlapProductivity);
    EXPECT_EQ(columns[4].kind, Kind::kWaitLag1);
    EXPECT_EQ(columns[5].kind, Kind::kLines);
    // A protocol spec may hold commas: the split falls where both
    // halves are swept protocols.
    const auto wrap =
        parseOk("[sweep]\nloads = 1\nprotocols = rr1 fcfs1:bits=2,wrap\n"
                "[table]\ntitle = T\n"
                "column = V = overlap(fcfs1:bits=2,wrap,rr1) @ rr1\n")
            .tables.front()
            .columns.front();
    EXPECT_EQ(wrap.a, 1);
    EXPECT_EQ(wrap.b, 0);

    EXPECT_EQ(parseError(grid + "column = V = overlap(rr1,rr2) @ rr1\n"),
              "line 6: key 'column': overlap(rr1,rr2): 'rr2' is not in "
              "[sweep] protocols");
    EXPECT_EQ(parseError(grid + "column = V = overlap(rr1,rr1) @ rr1\n"),
              "line 6: key 'column': overlap(rr1,rr1) needs two different "
              "protocols");
    EXPECT_EQ(parseError(grid + "column = R = overlap_residual(rr1) @ rr1\n"),
              "line 6: key 'column': overlap_residual(rr1) needs two "
              "protocols, a and b");
    EXPECT_EQ(parseError(grid + "column = F = cdf(-1) @ rr1\n"),
              "line 6: key 'column': cdf(-1) needs a finite t >= 0");
    EXPECT_EQ(parseError(grid + "column = F = cdf(nan) @ rr1\n"),
              "line 6: key 'column': cdf(nan) needs a finite t >= 0");
    EXPECT_EQ(parseError(grid + "column = F = cdf(x) @ rr1\n"),
              "line 6: key 'column': cdf(x) needs a finite t >= 0");
    EXPECT_EQ(parseError(grid + "column = L = wait_lag @ rr1\n"),
              "line 6: key 'column': unknown quantity 'wait_lag'; did you "
              "mean 'wait_lag1'?");
    EXPECT_NE(parseError(grid + "column = k = lines(2) @ rr1\n")
                  .find("line 6: key 'column': unknown quantity 'lines(2)'"),
              std::string::npos);
}

TEST(ScenarioSpecErrorTest, FileLevelValidationHasNoLinePrefix)
{
    EXPECT_EQ(parseError("[workload]\nfamily = unequal\n"),
              "family 'unequal' requires unequal-factor");
    EXPECT_EQ(parseError("[workload]\nfamily = worst-case\n"
                         "[sweep]\nloads = 1\n"),
              "family 'worst-case' takes no loads (the Table 4.5 "
              "workload fixes its own rates)");
}

TEST(ScenarioSpecErrorTest, UnequalFactorRequiresFamilyUnequal)
{
    // Outside family unequal the key used to vanish from format() and
    // the run used the family's own workload.
    for (const char *family : {"", "family = equal\n",
                               "family = worst-case\n"}) {
        EXPECT_EQ(parseError(std::string("[workload]\n") + family +
                             "unequal-factor = 2\n"),
                  "unequal-factor requires family 'unequal'")
            << family;
    }
}

TEST(ScenarioSpecErrorTest, ScenarioBuilderRangesAreCheckedUpFront)
{
    // Each of these would otherwise reach an assert in
    // workload/scenario.cc.
    EXPECT_EQ(parseError("[workload]\nagents = 5\nload = 7.5\n"),
              "load 7.5 over 5 agents is 1.5 per agent; the per-agent "
              "load must be in (0, 1)");
    EXPECT_EQ(parseError("[workload]\nload = 0\n"),
              "load 0 over 10 agents is 0 per agent; the per-agent "
              "load must be in (0, 1)");
    EXPECT_EQ(parseError("[sweep]\nloads = 1 -1\n"),
              "load -1 over 10 agents is -0.1 per agent; the per-agent "
              "load must be in (0, 1)");
    // Below 1e-6 a think time overflows the tick clock: load 1e-300
    // ran as saturated, and 1e-12 panicked with an empty batch.
    EXPECT_EQ(parseError("[workload]\nload = 1e-300\n"),
              "load 1e-300 over 10 agents is 1e-301 per agent; the "
              "per-agent load must be >= 1e-06");
    EXPECT_EQ(parseError("[workload]\nload = 1e-12\n"),
              "load 1e-12 over 10 agents is 1e-13 per agent; the "
              "per-agent load must be >= 1e-06");
    EXPECT_EQ(parseError("[workload]\nfamily = unequal\n"
                         "unequal-factor = 1e-9\nload = 1\n"),
              "unequal-factor 1e-09 at load 1 pushes agent 1's offered "
              "load to < 1e-06");
    EXPECT_EQ(parseError("[workload]\nhot-agents = 1\n"
                         "hot-factor = 1e-9\nload = 1\n"),
              "hot-factor 1e-09 at load 1 pushes a hot agent's offered "
              "load to < 1e-06");
    EXPECT_EQ(parseError("[workload]\nfamily = unequal\n"
                         "unequal-factor = 3\nagents = 5\nload = 2.5\n"),
              "unequal-factor 3 at load 2.5 pushes agent 1's offered "
              "load to >= 1");
    EXPECT_EQ(parseError("[workload]\nfamily = unequal\n"
                         "unequal-factor = 2\nagents = 1\nload = 0.5\n"),
              "family 'unequal' requires agents >= 2, got 1");
    EXPECT_EQ(parseError("[workload]\nfamily = worst-case\nagents = 3\n"),
              "family 'worst-case' requires agents >= 5, got 3");

    // The edges of each range still build.
    parseOk("[workload]\nfamily = worst-case\nagents = 5\n")
        .configForLoad("");
    parseOk("[workload]\nagents = 5\nload = 4.99\n").configForLoad("4.99");
    parseOk("[workload]\nfamily = unequal\nunequal-factor = 2\n"
            "agents = 2\nload = 0.99\n")
        .configForLoad("0.99");
    parseOk("[workload]\nagents = 1\nload = 1e-6\n").configForLoad("1e-6");
    parseOk("[workload]\ncv = 100\nload = 1\n[bus]\narb-overhead = 1000\n")
        .configForLoad("1");
}

TEST(ScenarioSpecFlagsTest, WasSetTracksExplicitFlagsOnly)
{
    ArgParser parser("prog", "test");
    addScenarioFlags(parser);
    std::vector<const char *> args{"prog", "--agents", "8"};
    ASSERT_TRUE(parser.parse(static_cast<int>(args.size()), args.data()));
    EXPECT_TRUE(parser.wasSet("agents"));
    EXPECT_FALSE(parser.wasSet("cv"));
    EXPECT_FALSE(parser.wasSet("scenario"));
}

TEST(ScenarioSpecSourceTest, DefaultSourceIsClosedAndOmittedFromFormat)
{
    const ScenarioSpec spec = parseOk("");
    EXPECT_EQ(spec.source, "closed");
    EXPECT_TRUE(spec.sourceTakesLoads());
    // Pre-seam scenario text must format (and hence hash) identically,
    // so the default source never appears in the canonical form.
    EXPECT_EQ(spec.format().find("source"), std::string::npos);
}

TEST(ScenarioSpecSourceTest, SourceRoundTripsVerbatim)
{
    const ScenarioSpec spec =
        parseOk("[workload]\nsource = open:dist=mmpp,burst=4\n"
                "[sweep]\nloads = 0.5 1\nprotocols = rr1\n");
    EXPECT_EQ(spec.source, "open:dist=mmpp,burst=4");
    EXPECT_NE(spec.format().find("source = open:dist=mmpp,burst=4"),
              std::string::npos);
    const ScenarioSpec again = parseOk(spec.format());
    EXPECT_EQ(again.format(), spec.format());
}

TEST(ScenarioSpecSourceTest, BadSourceSpecsFailWithLineNumbers)
{
    EXPECT_EQ(parseError("[workload]\nsource = opne\n"),
              "line 2: bad workload source 'opne': unknown workload "
              "source key 'opne'; did you mean 'open'?");
}

TEST(ScenarioSpecSourceTest, TraceSourcesHaveNoLoadAxis)
{
    const ScenarioSpec spec =
        parseOk("[workload]\nsource = trace:file=x.trace\n"
                "[sweep]\nprotocols = rr1 fcfs1\n");
    EXPECT_FALSE(spec.sourceTakesLoads());
    EXPECT_EQ(spec.rowAxis(), std::vector<std::string>{"-"});
    EXPECT_EQ(spec.cellCount(), 2u);
    EXPECT_EQ(spec.cellLoadToken(0), "-");

    EXPECT_EQ(parseError("[workload]\nsource = trace:file=x.trace\n"
                         "load = 2\n"),
              "workload source 'trace:file=x.trace' takes no loads "
              "(it fixes its own arrival schedule)");
}

TEST(ScenarioSpecSourceTest, ConfigCarriesTheSpecVerbatim)
{
    const ScenarioSpec spec =
        parseOk("[workload]\nsource = open:rate=2\nload = 0.5\n");
    const ScenarioConfig config = spec.configForLoad("0.5");
    EXPECT_EQ(config.workloadSpec, "open:rate=2");
    EXPECT_EQ(parseOk("").configForLoad("1").workloadSpec, "closed");
}

TEST(ScenarioSpecHotMixTest, HotAgentsScaleTheirShare)
{
    const ScenarioSpec spec = parseOk("[workload]\nagents = 4\n"
                                      "hot-agents = 2\nhot-factor = 3\n"
                                      "load = 0.4\n");
    const ScenarioConfig config = spec.configForLoad("0.4");
    // Base per-agent load 0.1; hot agents offer 0.3 each.
    ASSERT_EQ(config.agents.size(), 4u);
    const double hot = config.agents[0].meanInterrequest;
    const double cold = config.agents[2].meanInterrequest;
    EXPECT_DOUBLE_EQ(config.agents[1].meanInterrequest, hot);
    EXPECT_DOUBLE_EQ(config.agents[3].meanInterrequest, cold);
    // interrequestForLoad is monotone decreasing in load, and the hot
    // agents' offered load is exactly hot-factor times the base.
    EXPECT_LT(hot, cold);
    const double s = config.bus.transactionTime;
    const double hot_load = s / (s + hot);
    const double cold_load = s / (s + cold);
    EXPECT_NEAR(hot_load, 3.0 * cold_load, 1e-9);
}

TEST(ScenarioSpecHotMixTest, RoundTripsAndValidates)
{
    const ScenarioSpec spec = parseOk("[workload]\nagents = 8\n"
                                      "hot-agents = 2\nhot-factor = 3\n"
                                      "load = 1\n");
    EXPECT_NE(spec.format().find("hot-agents = 2"), std::string::npos);
    EXPECT_NE(spec.format().find("hot-factor = 3"), std::string::npos);
    EXPECT_EQ(parseOk(spec.format()).format(), spec.format());
    // Defaults stay invisible, preserving pre-seam canonical text.
    EXPECT_EQ(parseOk("").format().find("hot-"), std::string::npos);

    EXPECT_EQ(parseError("[workload]\nhot-agents = 2\nload = 1\n"),
              "hot-agents requires hot-factor");
    EXPECT_EQ(parseError("[workload]\nhot-factor = 2\nload = 1\n"),
              "hot-factor requires hot-agents");
    EXPECT_EQ(parseError("[workload]\nagents = 4\nhot-agents = 5\n"
                         "hot-factor = 2\nload = 1\n"),
              "hot-agents exceeds agents");
    EXPECT_NE(parseError("[workload]\nfamily = unequal\n"
                         "unequal-factor = 2\nhot-agents = 1\n"
                         "hot-factor = 2\nload = 1\n")
                  .find("requires family 'equal'"),
              std::string::npos);
    EXPECT_NE(parseError("[workload]\nagents = 4\nhot-agents = 2\n"
                         "hot-factor = 8\nload = 2\n")
                  .find("pushes a hot agent's offered load"),
              std::string::npos);
}

TEST(ScenarioSpecDeathTest, OrExitDistinguishesIoFromParseErrors)
{
    EXPECT_EXIT(scenarioSpecOrExit("prog", "/nonexistent/x.scenario"),
                ::testing::ExitedWithCode(1), "prog: cannot read");

    const std::string path = testTempPath("bad.scenario");
    {
        std::ofstream out(path);
        out << "[workload]\nagents = none\n";
    }
    EXPECT_EXIT(scenarioSpecOrExit("prog", path),
                ::testing::ExitedWithCode(2),
                "line 2: key 'agents' expects an integer");
    std::remove(path.c_str());
}

TEST(ScenarioSpecDeathTest, FlagPathExitsTwoOnOutOfRangeScenarios)
{
    EXPECT_EXIT(specFromFlags({"--warmup", "-1"}),
                ::testing::ExitedWithCode(2),
                "prog: --warmup must be >= 0, got -1");
    EXPECT_EXIT(specFromFlags({"--agents", "5", "--load", "7.5"}),
                ::testing::ExitedWithCode(2),
                "prog: load 7.5 over 5 agents");
    EXPECT_EXIT(specFromFlags({"--unequal-factor", "3", "--agents", "5",
                               "--load", "2.5"}),
                ::testing::ExitedWithCode(2), "prog: unequal-factor 3");
    EXPECT_EXIT(specFromFlags({"--worst-case", "--agents", "3"}),
                ::testing::ExitedWithCode(2),
                "prog: family 'worst-case' requires agents >= 5");

    // Integers the spec cannot hold. Each of these used to run:
    // --agents and --batches wrapped to their low 32 bits, and --seed
    // -5 became 18446744073709551611.
    EXPECT_EXIT(specFromFlags({"--agents", "4294967306"}),
                ::testing::ExitedWithCode(2),
                "prog: --agents must be <= 2147483647, got 4294967306");
    EXPECT_EXIT(specFromFlags({"--batches", "4294967297"}),
                ::testing::ExitedWithCode(2),
                "prog: --batches must be <= 2147483647, got 4294967297");
    EXPECT_EXIT(specFromFlags({"--max-outstanding", "-4294967295"}),
                ::testing::ExitedWithCode(2),
                "prog: --max-outstanding must be >= 1, got -4294967295");
    EXPECT_EXIT(specFromFlags({"--hot-agents", "4294967298",
                               "--hot-factor", "2"}),
                ::testing::ExitedWithCode(2),
                "prog: --hot-agents must be <= 2147483647, got 4294967298");
    EXPECT_EXIT(specFromFlags({"--hot-agents", "-1"}),
                ::testing::ExitedWithCode(2),
                "prog: --hot-agents must be >= 0, got -1");
    EXPECT_EXIT(specFromFlags({"--seed", "-5"}),
                ::testing::ExitedWithCode(2),
                "prog: --seed must be >= 0, got -5");
    // A seed past the long range fails the flag parse itself.
    ArgParser parser("prog", "test");
    addScenarioFlags(parser);
    const char *args[] = {"prog", "--seed", "99999999999999999999"};
    EXPECT_FALSE(parser.parse(3, args));
    EXPECT_EQ(parser.exitCode(), 2);
    EXPECT_EQ(specFromFlags({"--seed", "9223372036854775807"}).seed,
              9223372036854775807u);
}

TEST(ScenarioSpecDeathTest, FlagErrorsNameTheFlag)
{
    // A flag gets its key's own check and names itself, never a line
    // of a file the user did not write.
    EXPECT_EXIT(specFromFlags({"--agents", "0"}),
                ::testing::ExitedWithCode(2),
                "prog: --agents must be >= 1, got 0");
    EXPECT_EXIT(specFromFlags({"--batches", "0"}, true),
                ::testing::ExitedWithCode(2),
                "prog: --batches must be >= 1, got 0");
    EXPECT_EXIT(specFromFlags({"--cv", "-1"}, true),
                ::testing::ExitedWithCode(2),
                "prog: --cv must be >= 0, got -1");
    EXPECT_EXIT(specFromFlags({"--cv", "nan"}),
                ::testing::ExitedWithCode(2),
                "prog: --cv expects a number, got nan");
    // Values past the tick clock's bounds.
    EXPECT_EXIT(specFromFlags({"--arb-overhead", "1e13"}),
                ::testing::ExitedWithCode(2),
                "prog: --arb-overhead must be <= 1000, got 1e\\+13");
    EXPECT_EXIT(specFromFlags({"--arb-overhead", "1e300"}),
                ::testing::ExitedWithCode(2),
                "prog: --arb-overhead must be <= 1000, got 1e\\+300");
    EXPECT_EXIT(specFromFlags({"--arb-overhead", "1e12"}),
                ::testing::ExitedWithCode(2),
                "prog: --arb-overhead must be <= 1000, got 1e\\+12");
    EXPECT_EXIT(specFromFlags({"--cv", "1e155"}),
                ::testing::ExitedWithCode(2),
                "prog: --cv must be <= 100, got 1e\\+155");
    EXPECT_EXIT(specFromFlags({"--load", "1e-300"}),
                ::testing::ExitedWithCode(2),
                "prog: load 1e-300 over 10 agents is 1e-301 per agent; "
                "the per-agent load must be >= 1e-06");
    EXPECT_EXIT(specFromFlags({"--load", "1e-12"}),
                ::testing::ExitedWithCode(2),
                "prog: load 1e-12 over 10 agents is 1e-13 per agent; "
                "the per-agent load must be >= 1e-06");
    // Each of these used to run the equal workload and exit 0.
    EXPECT_EXIT(specFromFlags({"--unequal-factor", "-1"}),
                ::testing::ExitedWithCode(2),
                "prog: --unequal-factor must be > 0, got -1");
    EXPECT_EXIT(specFromFlags({"--hot-factor", "-1"}),
                ::testing::ExitedWithCode(2),
                "prog: --hot-factor must be > 0, got -1");
    EXPECT_EXIT(specFromFlags({"--hot-factor", "3"}),
                ::testing::ExitedWithCode(2),
                "prog: hot-factor requires hot-agents");
    EXPECT_EXIT(specFromFlags({"--worst-case", "--load", "3"}),
                ::testing::ExitedWithCode(2),
                "prog: family 'worst-case' takes no loads");
    EXPECT_EXIT(specFromFlags({"--worst-case", "--unequal-factor", "2"}),
                ::testing::ExitedWithCode(2),
                "prog: unequal-factor requires family 'unequal'");
    // Tokens of a list flag name the flag too.
    EXPECT_EXIT(specFromFlags({"--loads", "0.5,bogus"}, true),
                ::testing::ExitedWithCode(2),
                "prog: --loads: bad load 'bogus'");
    EXPECT_EXIT(specFromFlags({"--protocols", ""}, true),
                ::testing::ExitedWithCode(2),
                "prog: --protocols needs a value");
    EXPECT_EXIT(specFromFlags({"--loads", ","}, true),
                ::testing::ExitedWithCode(2), "prog: --loads needs a value");
    EXPECT_EXIT(specFromFlags({"--source", "opne"}),
                ::testing::ExitedWithCode(2),
                "prog: --source: bad workload source 'opne'");
    // A repeated axis value names the flag; cv has no axis flag.
    EXPECT_EXIT(specFromFlags({"--loads", "1,2,1"}, true),
                ::testing::ExitedWithCode(2),
                "prog: --loads must not repeat a value, got 1");
    EXPECT_EXIT(specFromFlags({"--protocols", "rr1,fcfs1,rr1"}, true),
                ::testing::ExitedWithCode(2),
                "prog: --protocols must not repeat a value, got rr1");

    // A factor of 0 is off.
    EXPECT_EQ(specFromFlags({"--unequal-factor", "0", "--hot-factor", "0"})
                  .format(),
              specFromFlags({}).format());
}

} // namespace
} // namespace busarb
