/**
 * @file
 * Shard task file and worker run-loop tests. The end-to-end case is
 * the keystone: a worker run through the public entry point must
 * checkpoint results whose encoded bytes equal an in-process
 * runScenarioGrid of the same cells — the byte-identity the sharded
 * merge rests on.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include <gtest/gtest.h>

#include "dist/manifest.hh"
#include "dist/result_codec.hh"
#include "dist/shard_plan.hh"
#include "dist/worker_protocol.hh"
#include "experiment/observer_flags.hh"
#include "experiment/runner.hh"
#include "experiment/sweep_cells.hh"
#include "obs/export_format.hh"

namespace busarb {
namespace {

/** A grid small enough to simulate in milliseconds: 2 x 2 cells. */
ScenarioSpec
tinySpec()
{
    ScenarioSpec spec;
    spec.agents = 4;
    spec.batches = 2;
    spec.batchSize = 50;
    spec.loadTokens = {"0.5", "1"};
    spec.protocolSpecs = {"rr1", "fcfs1"};
    return spec;
}

SweepTuning
richTuning()
{
    SweepTuning tuning;
    tuning.captureTrace = true;
    tuning.fairness = true;
    tuning.fairnessWindow = 25.0;
    tuning.bypassBound = 3;
    tuning.health = true;
    tuning.healthRelHw = 0.125;
    tuning.healthLag1 = 0.5;
    tuning.snapshotEvery = 10.0;
    tuning.healthSnapshots = true;
    tuning.queuePolicy = EventQueuePolicy::kHeap;
    return tuning;
}

TEST(ShardFile, RenderParseRoundTrip)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning = richTuning();
    const std::string scenario = spec.format();
    const std::uint64_t fp =
        sweepFingerprint(scenario, tuning.canonicalKey());

    const std::string text =
        renderShardFile(fp, 3, 1, 4, scenario, tuning);
    ShardTask task;
    std::string error;
    ASSERT_TRUE(parseShardFile(text, task, error)) << error;
    EXPECT_EQ(task.fingerprint, fp);
    EXPECT_EQ(task.shard, 3u);
    EXPECT_EQ(task.begin, 1u);
    EXPECT_EQ(task.end, 4u);
    EXPECT_EQ(task.spec.format(), scenario);
    EXPECT_EQ(task.tuning.canonicalKey(), tuning.canonicalKey());
    EXPECT_EQ(task.tuning.queuePolicy, EventQueuePolicy::kHeap);
}

TEST(ShardFile, RejectsFingerprintMismatch)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning; // defaults != richTuning
    const std::string text = renderShardFile(
        0xdeadbeefdeadbeefULL, 0, 0, 4, spec.format(), tuning);
    ShardTask task;
    std::string error;
    EXPECT_FALSE(parseShardFile(text, task, error));
    EXPECT_NE(error.find("fingerprint"), std::string::npos) << error;
}

TEST(ShardFile, RejectsVersionMismatch)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning;
    std::string text = renderShardFile(
        sweepFingerprint(spec.format(), tuning.canonicalKey()), 0, 0, 4,
        spec.format(), tuning);
    const std::size_t v = text.find("busarb-shard v1");
    ASSERT_NE(v, std::string::npos);
    text.replace(v, 15, "busarb-shard v9");
    ShardTask task;
    std::string error;
    EXPECT_FALSE(parseShardFile(text, task, error));
}

TEST(ShardFile, RejectsBadCellRange)
{
    const ScenarioSpec spec = tinySpec(); // 4 cells
    const SweepTuning tuning;
    const std::uint64_t fp =
        sweepFingerprint(spec.format(), tuning.canonicalKey());
    ShardTask task;
    std::string error;
    // begin == end (empty shard).
    EXPECT_FALSE(parseShardFile(
        renderShardFile(fp, 0, 2, 2, spec.format(), tuning), task,
        error));
    // end beyond the grid.
    EXPECT_FALSE(parseShardFile(
        renderShardFile(fp, 0, 0, 5, spec.format(), tuning), task,
        error));
}

/** @return `config` with one knob reset to its default. */
ObserverConfig
withDefault(ObserverConfig config, const ObserverKnob &knob)
{
    const ObserverConfig defaults;
    std::visit([&](auto member) { config.*member = defaults.*member; },
               knob.field);
    return config;
}

std::uint64_t
fingerprintOf(const ObserverConfig &config)
{
    return sweepFingerprint(tinySpec().format(),
                            SweepTuning{config}.canonicalKey());
}

/**
 * Every row of the observer table: a non-default value set from the
 * flags survives flags -> ObserverConfig -> canonical key -> parse ->
 * config, and moves the sweep fingerprint. A knob added without a key
 * (or without a way to set it from the flags) fails here until it is
 * covered or named as unobservable below.
 */
TEST(TuningKey, ParseRoundTripProperty)
{
    // How the flagless knobs are set by their implication rules, and
    // the partner flag a snapshot interval needs.
    const std::map<std::string, std::vector<std::string>> partners = {
        {"trace", {"--trace-out", "t.trace"}},
        {"health-snapshots", {"--health", "--snapshot-out", "s.jsonl"}},
        {"snapshot-every", {"--snapshot-out", "s.jsonl"}},
    };
    // Knobs no artifact can observe, so a resume may change them.
    const std::set<std::string> unobservable = {"flight-recorder"};

    const ObserverConfig defaults;
    for (const ObserverKnob &knob : observerKnobs()) {
        const std::string name = *knob.key ? knob.key : knob.flag;
        SCOPED_TRACE(name);
        ASSERT_NE(knob.tools & kSimTool, 0u);

        std::vector<std::string> args = {"busarb_sim"};
        if (partners.count(name))
            for (const std::string &arg : partners.at(name))
                args.push_back(arg);
        if (*knob.flag != '\0') {
            args.push_back(std::string("--") + knob.flag);
            std::visit(
                [&](auto member) {
                    using T = std::remove_cvref_t<decltype(defaults.*member)>;
                    if constexpr (std::is_same_v<T, int>)
                        args.push_back(std::to_string(defaults.*member + 1));
                    else if constexpr (std::is_same_v<T, double>)
                        args.push_back(formatDouble(defaults.*member + 1.5));
                },
                knob.field);
        } else {
            ASSERT_TRUE(partners.count(name))
                << "no flags set flagless knob " << name;
        }
        std::vector<const char *> argv;
        for (const std::string &arg : args)
            argv.push_back(arg.c_str());
        ArgParser parser("busarb_sim", "observer table test");
        addObserverFlags(parser, kSimTool);
        ASSERT_TRUE(parser.parse(static_cast<int>(argv.size()),
                                 argv.data()));
        const ObserverConfig config =
            observerConfigFromFlagsOrExit("busarb_sim", parser);
        std::visit(
            [&](auto member) {
                EXPECT_NE(config.*member, defaults.*member);
            },
            knob.field);

        const ObserverConfig reset = withDefault(config, knob);
        if (*knob.key == '\0') {
            EXPECT_TRUE(unobservable.count(name))
                << name << " has no canonical key";
            EXPECT_EQ(observerKey(config), observerKey(reset));
            continue;
        }
        ObserverConfig parsed;
        std::string error;
        ASSERT_TRUE(parseObserverKey(observerKey(config), parsed, error))
            << error;
        EXPECT_EQ(observerKey(parsed), observerKey(config));
        std::visit(
            [&](auto member) {
                EXPECT_EQ(parsed.*member, config.*member);
            },
            knob.field);
        EXPECT_NE(fingerprintOf(config), fingerprintOf(reset));
    }
}

TEST(TuningKey, RejectsMalformedKeys)
{
    ObserverConfig parsed;
    std::string error;
    EXPECT_FALSE(parseObserverKey("", parsed, error));
    EXPECT_FALSE(parseObserverKey("trace=1", parsed, error)); // missing
    const std::string key = SweepTuning{}.canonicalKey();
    EXPECT_FALSE(parseObserverKey(key + ";mystery=1", parsed, error));
    EXPECT_FALSE(parseObserverKey(key + ";trace=0", parsed, error));
    for (const auto &[good, bad] :
         {std::pair{"trace=0", "trace=2"},
          std::pair{"health-lag1=0.3", "health-lag1=0"},
          std::pair{"bypass-bound=0", "bypass-bound=-1"},
          std::pair{"fairness-window=50", "fairness-window=1e-300"}}) {
        std::string text = key;
        text.replace(text.find(good), std::string(good).size(), bad);
        EXPECT_FALSE(parseObserverKey(text, parsed, error)) << bad;
    }
}

class WorkerShardTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "worker_shard_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        ::mkdir(dir_.c_str(), 0755);
        std::remove(shardFilePath(dir_, 0).c_str());
        std::remove(shardManifestPath(dir_, 0).c_str());
    }

    void
    TearDown() override
    {
        std::remove(shardFilePath(dir_, 0).c_str());
        std::remove(shardManifestPath(dir_, 0).c_str());
        ::rmdir(dir_.c_str());
    }

    /** Write the shard-0 task file covering cells [0, cells). */
    void
    writeTask(const ScenarioSpec &spec, const SweepTuning &tuning)
    {
        const std::string scenario = spec.format();
        fingerprint_ =
            sweepFingerprint(scenario, tuning.canonicalKey());
        std::ofstream out(shardFilePath(dir_, 0), std::ios::binary);
        out << renderShardFile(fingerprint_, 0, 0, spec.cellCount(),
                               scenario, tuning);
        ASSERT_TRUE(out.good());
    }

    std::string
    fileBytes(const std::string &path) const
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        return buffer.str();
    }

    std::string dir_;
    std::uint64_t fingerprint_ = 0;
};

/**
 * Compare a checkpointed cell record against a reference result,
 * bit-exact except for elapsedMs: per-cell wall-clock timing is host
 * noise by design (it feeds only the non-deterministic timing CSV),
 * so it is normalized away before the byte comparison.
 */
void
expectCellMatches(const std::vector<std::uint8_t> &record,
                  const ScenarioResult &reference, std::size_t cell)
{
    ScenarioResult decoded;
    std::string error;
    ASSERT_TRUE(decodeScenarioResult(record.data(), record.size(),
                                     decoded, error))
        << "cell " << cell << ": " << error;
    decoded.elapsedMs = reference.elapsedMs;
    EXPECT_EQ(encodeScenarioResult(decoded),
              encodeScenarioResult(reference))
        << "cell " << cell << " diverged from the in-process run";
}

TEST_F(WorkerShardTest, ProducesBytesIdenticalToInProcessRun)
{
    const ScenarioSpec spec = tinySpec();
    SweepTuning tuning = richTuning();
    tuning.queuePolicy = EventQueuePolicy::kCalendar;
    writeTask(spec, tuning);

    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              0);

    const ManifestHeader header{fingerprint_, 0, 0, spec.cellCount()};
    ManifestContents contents;
    std::string error;
    ASSERT_EQ(readManifest(shardManifestPath(dir_, 0), header,
                           contents, error),
              ManifestReadStatus::kOk)
        << error;
    ASSERT_EQ(contents.cells.size(), spec.cellCount());

    const auto reference = runScenarioGrid(
        buildSweepGrid(spec, tuning, "worker_test"), 1);
    ASSERT_EQ(reference.size(), spec.cellCount());
    for (std::size_t cell = 0; cell < reference.size(); ++cell)
        expectCellMatches(contents.cells.at(cell), reference[cell],
                          cell);
}

TEST_F(WorkerShardTest, ResumeSkipsCheckpointedCellsAndIsIdempotent)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning;
    writeTask(spec, tuning);

    // Pre-checkpoint cells 0 and 2 from an in-process run, as if a
    // previous worker died after finishing them.
    const auto reference = runScenarioGrid(
        buildSweepGrid(spec, tuning, "worker_test"), 1);
    const ManifestHeader header{fingerprint_, 0, 0, spec.cellCount()};
    {
        ManifestWriter writer;
        std::string error;
        ASSERT_TRUE(writer.open(shardManifestPath(dir_, 0), header, 0,
                                error))
            << error;
        ASSERT_TRUE(writer.appendCell(
            0, encodeScenarioResult(reference[0]), error));
        ASSERT_TRUE(writer.appendCell(
            2, encodeScenarioResult(reference[2]), error));
    }

    ASSERT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              0);
    ManifestContents contents;
    std::string error;
    ASSERT_EQ(readManifest(shardManifestPath(dir_, 0), header,
                           contents, error),
              ManifestReadStatus::kOk)
        << error;
    ASSERT_EQ(contents.cells.size(), spec.cellCount());
    for (std::size_t cell = 0; cell < reference.size(); ++cell)
        expectCellMatches(contents.cells.at(cell), reference[cell],
                          cell);

    // A second run over the complete manifest must be a no-op: exit 0
    // and byte-identical manifest.
    const std::string before = fileBytes(shardManifestPath(dir_, 0));
    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              0);
    EXPECT_EQ(fileBytes(shardManifestPath(dir_, 0)), before);
}

TEST_F(WorkerShardTest, MissingTaskFileIsIoError)
{
    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              1);
}

TEST_F(WorkerShardTest, MalformedTaskFileIsUsageError)
{
    {
        std::ofstream out(shardFilePath(dir_, 0), std::ios::binary);
        out << "busarb-shard v1\nfingerprint nothex\n";
    }
    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              2);
}

TEST_F(WorkerShardTest, CorruptManifestIsUsageError)
{
    const ScenarioSpec spec = tinySpec();
    const SweepTuning tuning;
    writeTask(spec, tuning);
    {
        std::ofstream out(shardManifestPath(dir_, 0),
                          std::ios::binary);
        out << "{\"kind\":\"busarb-shard-manifest\",\"version\":9}\n";
    }
    EXPECT_EQ(runWorkerShard("worker_test",
                             shardFilePath(dir_, 0), 1),
              2);
}

} // namespace
} // namespace busarb
