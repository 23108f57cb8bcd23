/**
 * @file
 * Unit tests for the command-line flag parser, the artifact writer,
 * and the observer flags built on them.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/cli.hh"
#include "experiment/observer_flags.hh"
#include "support/temp_path.hh"

namespace busarb {
namespace {

ArgParser
makeParser()
{
    ArgParser parser("prog", "test program");
    parser.addStringFlag("name", "default", "a string");
    parser.addIntFlag("count", 7, "an int");
    parser.addDoubleFlag("rate", 1.5, "a double");
    parser.addBoolFlag("verbose", false, "a bool");
    return parser;
}

bool
parse(ArgParser &parser, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return parser.parse(static_cast<int>(args.size()), args.data());
}

TEST(ArgParserTest, DefaultsApplyWithoutArguments)
{
    auto parser = makeParser();
    EXPECT_TRUE(parse(parser, {}));
    EXPECT_EQ(parser.getString("name"), "default");
    EXPECT_EQ(parser.getInt("count"), 7);
    EXPECT_DOUBLE_EQ(parser.getDouble("rate"), 1.5);
    EXPECT_FALSE(parser.getBool("verbose"));
}

TEST(ArgParserTest, SpaceSeparatedValues)
{
    auto parser = makeParser();
    EXPECT_TRUE(parse(parser, {"--name", "abc", "--count", "42",
                               "--rate", "0.25"}));
    EXPECT_EQ(parser.getString("name"), "abc");
    EXPECT_EQ(parser.getInt("count"), 42);
    EXPECT_DOUBLE_EQ(parser.getDouble("rate"), 0.25);
}

TEST(ArgParserTest, EqualsSeparatedValues)
{
    auto parser = makeParser();
    EXPECT_TRUE(parse(parser, {"--name=xyz", "--count=-3",
                               "--rate=2.5e-1", "--verbose=true"}));
    EXPECT_EQ(parser.getString("name"), "xyz");
    EXPECT_EQ(parser.getInt("count"), -3);
    EXPECT_DOUBLE_EQ(parser.getDouble("rate"), 0.25);
    EXPECT_TRUE(parser.getBool("verbose"));
}

TEST(ArgParserTest, BareBoolFlagMeansTrue)
{
    auto parser = makeParser();
    EXPECT_TRUE(parse(parser, {"--verbose"}));
    EXPECT_TRUE(parser.getBool("verbose"));
}

TEST(ArgParserTest, BoolFlagCanBeSetFalse)
{
    ArgParser parser("prog", "test");
    parser.addBoolFlag("feature", true, "on by default");
    std::vector<const char *> args{"prog", "--feature=false"};
    EXPECT_TRUE(parser.parse(2, args.data()));
    EXPECT_FALSE(parser.getBool("feature"));
}

TEST(ArgParserTest, PositionalArgumentsCollected)
{
    auto parser = makeParser();
    EXPECT_TRUE(parse(parser, {"input.txt", "--count", "3", "more"}));
    EXPECT_EQ(parser.positional(),
              (std::vector<std::string>{"input.txt", "more"}));
}

TEST(ArgParserTest, HelpStopsParsing)
{
    auto parser = makeParser();
    ::testing::internal::CaptureStdout();
    EXPECT_FALSE(parse(parser, {"--help"}));
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_EQ(parser.exitCode(), 0);
    EXPECT_NE(out.find("--count <int>"), std::string::npos);
    EXPECT_NE(out.find("test program"), std::string::npos);
}

TEST(ArgParserTest, UnknownFlagFails)
{
    auto parser = makeParser();
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(parse(parser, {"--nope"}));
    (void)::testing::internal::GetCapturedStderr();
    EXPECT_EQ(parser.exitCode(), 2);
}

TEST(ArgParserTest, TypeErrorsFail)
{
    {
        auto parser = makeParser();
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(parse(parser, {"--count", "seven"}));
        (void)::testing::internal::GetCapturedStderr();
        EXPECT_EQ(parser.exitCode(), 2);
    }
    {
        auto parser = makeParser();
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(parse(parser, {"--rate", "fast"}));
        (void)::testing::internal::GetCapturedStderr();
    }
    {
        // A bare bool flag never consumes the next token, so the bad
        // value must come via '='.
        auto parser = makeParser();
        ::testing::internal::CaptureStderr();
        EXPECT_FALSE(parse(parser, {"--verbose=maybe"}));
        (void)::testing::internal::GetCapturedStderr();
    }
}

TEST(ArgParserTest, MissingValueFails)
{
    auto parser = makeParser();
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(parse(parser, {"--count"}));
    (void)::testing::internal::GetCapturedStderr();
    EXPECT_EQ(parser.exitCode(), 2);
}

TEST(ArgParserTest, HelpTextListsAllFlags)
{
    auto parser = makeParser();
    const std::string help = parser.helpText();
    for (const char *needle :
         {"--name <string>", "--count <int>", "--rate <number>",
          "--verbose [true|false]", "--help"}) {
        EXPECT_NE(help.find(needle), std::string::npos) << needle;
    }
}

TEST(NumericParseTest, ParseLongAcceptsWholeIntegersOnly)
{
    long v = 0;
    EXPECT_TRUE(parseLong("42", v));
    EXPECT_EQ(v, 42);
    EXPECT_TRUE(parseLong("-7", v));
    EXPECT_EQ(v, -7);
    EXPECT_FALSE(parseLong("", v));
    EXPECT_FALSE(parseLong("7x", v));
    EXPECT_FALSE(parseLong("x7", v));
}

TEST(NumericParseTest, ParseDoubleAcceptsWholeNumbersOnly)
{
    double v = 0.0;
    EXPECT_TRUE(parseDouble("0.25", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_TRUE(parseDouble("2.5e-1", v));
    EXPECT_DOUBLE_EQ(v, 0.25);
    EXPECT_FALSE(parseDouble("", v));
    EXPECT_FALSE(parseDouble("0.5,", v));
    EXPECT_FALSE(parseDouble("fast", v));
}

TEST(NumericParseTest, ListParsesAndSkipsEmptyTokens)
{
    const auto values =
        parseDoubleListOrExit("prog", "loads", "0.25,,0.5,2");
    EXPECT_EQ(values, (std::vector<double>{0.25, 0.5, 2.0}));
}

TEST(NumericParseDeathTest, BadListTokenExitsWithCode2)
{
    // The regression this guards: std::stod on a bad --loads token
    // used to abort with an uncaught std::invalid_argument instead of
    // a usage error naming the token.
    EXPECT_EXIT(parseDoubleListOrExit("prog", "loads", "0.5,bogus"),
                ::testing::ExitedWithCode(2), "bogus");
    EXPECT_EXIT(parseDoubleTokenOrExit("prog", "loads", "1.5x"),
                ::testing::ExitedWithCode(2), "1\\.5x");
}

TEST(ArgParserDeathTest, MisuseIsCaught)
{
    auto parser = makeParser();
    EXPECT_DEATH(parser.getString("undeclared"), "undeclared");
    EXPECT_DEATH(parser.getInt("name"), "wrong type");
    ArgParser dup("prog", "x");
    dup.addIntFlag("a", 1, "h");
    EXPECT_DEATH(dup.addIntFlag("a", 2, "h"), "twice");
}

TEST(ArgParserTest, DeclaresReportsDeclaredFlags)
{
    const auto parser = makeParser();
    EXPECT_TRUE(parser.declares("count"));
    EXPECT_FALSE(parser.declares("undeclared"));
}

TEST(WriteArtifactTest, WritesReportsAndSkipsAnUnsetPath)
{
    const auto write = [](std::ostream &out) { out << "x,y\n"; };
    EXPECT_TRUE(writeArtifact("prog", "", "nothing", write));

    const std::string path = testTempPath("artifact.csv");
    testing::internal::CaptureStdout();
    EXPECT_TRUE(writeArtifact("prog", path, "rows", write));
    EXPECT_EQ(testing::internal::GetCapturedStdout(),
              "wrote rows to " + path + "\n");
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    EXPECT_EQ(text.str(), "x,y\n");
    std::remove(path.c_str());

    testing::internal::CaptureStderr();
    EXPECT_FALSE(writeArtifact("prog", path + ".d/no/file", "rows", write));
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "prog: cannot write"),
              std::string::npos);
}

TEST(ObserverFlagsTest, EachToolDeclaresOnlyItsKnobs)
{
    ArgParser sim("sim", "x");
    ArgParser sweep("sweep", "x");
    ArgParser report("report", "x");
    ArgParser audit("audit", "x");
    addObserverFlags(sim, kSimTool);
    addObserverFlags(sweep, kSweepTool);
    addObserverFlags(report, kReportTool);
    addObserverFlags(audit, kAuditTool);
    EXPECT_TRUE(sim.declares("flight-recorder"));
    EXPECT_FALSE(sweep.declares("flight-recorder"));
    EXPECT_TRUE(sweep.declares("health-strict"));
    EXPECT_TRUE(report.declares("snapshot-every"));
    EXPECT_FALSE(report.declares("snapshot-out"));
    EXPECT_FALSE(report.declares("fairness"));
    EXPECT_TRUE(audit.declares("bypass-bound"));
    EXPECT_TRUE(audit.declares("snapshot-out"));
    EXPECT_FALSE(audit.declares("health"));
    EXPECT_FALSE(audit.declares("trace-out"));
}

TEST(ObserverFlagsTest, ImplicationRulesTurnOnTheSinksTheyNeed)
{
    ArgParser parser("sim", "x");
    addObserverFlags(parser, kSimTool);
    ASSERT_TRUE(parse(parser, {"--health-strict", "--snapshot-out",
                               "s.jsonl", "--snapshot-every", "5",
                               "--trace-out", "t.trace"}));
    const ObserverConfig o = observerConfigFromFlagsOrExit("sim", parser);
    EXPECT_TRUE(o.captureTrace);
    EXPECT_TRUE(o.health);
    EXPECT_TRUE(o.healthSnapshots);
    EXPECT_TRUE(o.fairness);
    EXPECT_EQ(o.snapshotEvery, 5.0);
}

TEST(ObserverFlagsDeathTest, BadValuesExitWithCode2NamingTheFlag)
{
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"health-lag1", "0"},        {"health-rel-hw", "inf"},
        {"fairness-window", "1e-300"}, {"bypass-bound", "-1"},
        {"flight-recorder", "-5"},   {"snapshot-every", "nan"},
    };
    for (const auto &[flag, value] : bad) {
        ArgParser parser("sim", "x");
        addObserverFlags(parser, kSimTool);
        const std::string arg = "--" + flag;
        ASSERT_TRUE(parse(parser, {arg.c_str(), value.c_str()}));
        EXPECT_EXIT(observerConfigFromFlagsOrExit("sim", parser),
                    ::testing::ExitedWithCode(2), arg + " must be ")
            << flag;
    }
    ArgParser parser("sim", "x");
    addObserverFlags(parser, kSimTool);
    ASSERT_TRUE(parse(parser, {"--snapshot-every", "5"}));
    EXPECT_EXIT(observerConfigFromFlagsOrExit(
                    "sim", parser, SnapshotSources::kIntervalOrHealth),
                ::testing::ExitedWithCode(2), "requires --snapshot-out");
    ArgParser audit("audit", "x");
    addObserverFlags(audit, kAuditTool);
    ASSERT_TRUE(parse(audit, {"--snapshot-out", "s.jsonl"}));
    EXPECT_EXIT(observerConfigFromFlagsOrExit("audit", audit,
                                              SnapshotSources::kInterval),
                ::testing::ExitedWithCode(2),
                "--snapshot-out requires --snapshot-every\n");
}

TEST(ObserverFlagsTest, ReportEmbedsSnapshotsWithoutAnArtifact)
{
    ArgParser report("report", "x");
    addObserverFlags(report, kReportTool);
    ASSERT_TRUE(parse(report, {"--snapshot-every", "5"}));
    const ObserverConfig o = observerConfigFromFlagsOrExit("report", report);
    EXPECT_EQ(o.snapshotEvery, 5.0);
    EXPECT_TRUE(o.fairness);
}

} // namespace
} // namespace busarb
