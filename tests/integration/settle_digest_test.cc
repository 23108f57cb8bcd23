/**
 * @file
 * Pins the signal-level behaviour of every distributed protocol under
 * settle timing: a digest of each pass's winner and settle-round count,
 * over closed, open (MMPP) and priority-trace workloads at 10, 64 and
 * 100 agents (one, one and two 64-agent mask words). The expected
 * digests were recorded from the per-agent settle loop, so any change
 * to how passes are frozen or settled that moves a single winner or
 * round count fails here.
 */

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "random/rng.hh"
#include "support/temp_path.hh"
#include "workload/scenario.hh"

namespace busarb {
namespace {

/** Folds every pass outcome of the wrapped protocol into a digest. */
class PassDigest final : public ArbitrationProtocol
{
  public:
    PassDigest(std::unique_ptr<ArbitrationProtocol> inner,
               std::uint64_t &digest)
        : inner_(std::move(inner)), digest_(digest)
    {
    }

    void reset(int n) override { inner_->reset(n); }
    void requestPosted(const Request &r) override
    {
        inner_->requestPosted(r);
    }
    bool wantsPass() const override { return inner_->wantsPass(); }
    void beginPass(Tick now) override { inner_->beginPass(now); }

    PassResult
    completePass(Tick now) override
    {
        const PassResult result = inner_->completePass(now);
        mix(static_cast<std::uint64_t>(result.kind));
        mix(static_cast<std::uint64_t>(result.winner.agent));
        mix(result.winner.seq);
        return result;
    }

    void tenureStarted(const Request &r, Tick now) override
    {
        inner_->tenureStarted(r, now);
    }
    void tenureEnded(const Request &r, Tick now) override
    {
        inner_->tenureEnded(r, now);
    }
    std::string name() const override { return inner_->name(); }

    int
    settleRoundsForPass() const override
    {
        const int rounds = inner_->settleRoundsForPass();
        mix(static_cast<std::uint64_t>(rounds));
        return rounds;
    }

    int
    arbitrationLineCount() const override
    {
        return inner_->arbitrationLineCount();
    }

  private:
    void
    mix(std::uint64_t value) const
    {
        // FNV-1a over the value's eight bytes.
        for (int i = 0; i < 8; ++i) {
            digest_ ^= (value >> (8 * i)) & 0xff;
            digest_ *= 0x100000001b3ULL;
        }
    }

    std::unique_ptr<ArbitrationProtocol> inner_;
    std::uint64_t &digest_;
};

/** One pinned run: workload kind, agent count and recorded digest. */
struct PinnedRun
{
    const char *source; // "closed", "mmpp" or "priority-trace"
    int agents;
    std::uint64_t digest;
};

struct SpecPins
{
    const char *spec;
    std::vector<PinnedRun> runs;
};

/** Names a pinned spec in gtest output. */
void
PrintTo(const SpecPins &pins, std::ostream *os)
{
    *os << pins.spec;
}

/**
 * Writes a seeded text trace of `count` requests over `agents` agents,
 * about one in five of them priority requests.
 */
std::string
writePriorityTrace(int agents, int count)
{
    const std::string path =
        testTempPath("prio" + std::to_string(agents) + ".txt");
    std::ofstream out(path);
    out.precision(12);
    Rng rng(0x5e771e + static_cast<std::uint64_t>(agents));
    double t = 0.0;
    for (int i = 0; i < count; ++i) {
        t += 0.9 * rng.uniform();
        out << t << ' '
            << 1 + rng.below(static_cast<std::uint64_t>(agents));
        if (rng.below(5) == 0)
            out << " p";
        out << '\n';
    }
    return path;
}

/** @return The spec text for `spec` at `agents` agents. */
std::string
specFor(const std::string &spec, int agents)
{
    if (spec != "wrr")
        return spec;
    // The first agent bursts four grants per turn, the rest one.
    std::string text = "wrr:weights=4";
    for (int a = 2; a <= agents; ++a)
        text += "/1";
    return text;
}

std::uint64_t
digestOf(const std::string &spec, const PinnedRun &run)
{
    const std::string source = run.source;
    // Closed agents each offer half the bus (every pass is crowded);
    // open sources offer 0.9 in total, in bursts that queue several
    // requests per agent.
    ScenarioConfig config = equalLoadScenario(
        run.agents, source == "closed" ? 0.5 * run.agents : 0.9);
    config.bus.settleTiming = true;
    config.numBatches = 2;
    config.batchSize = 1000;
    config.warmup = 500;
    config.seed = 0xd16e57;
    std::vector<std::string> cleanup;
    if (source == "mmpp") {
        config.workloadSpec = "open:dist=mmpp";
    } else if (source == "priority-trace") {
        const std::string path = writePriorityTrace(run.agents, 3000);
        cleanup.push_back(path);
        config.workloadSpec = "trace:file=" + path;
    }
    const ProtocolFactory inner =
        ProtocolRegistry::builtin().fromSpec(specFor(spec, run.agents));
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    runScenario(config, [&] {
        return std::make_unique<PassDigest>(inner(), digest);
    });
    for (const std::string &path : cleanup)
        std::remove(path.c_str());
    return digest;
}

class SettleDigestTest : public ::testing::TestWithParam<SpecPins>
{
};

TEST_P(SettleDigestTest, PerPassWinnersAndRoundsMatchRecorded)
{
    const SpecPins &pins = GetParam();
    for (const PinnedRun &run : pins.runs) {
        const std::uint64_t digest = digestOf(pins.spec, run);
        EXPECT_EQ(digest, run.digest)
            << pins.spec << " " << run.source << " N=" << run.agents
            << ": digest 0x" << std::hex << digest;
    }
}

/**
 * @param digests Recorded digests in the order closed, MMPP, then (for
 *        priority-enabled specs) priority-trace, each at 10, 64 and
 *        100 agents.
 */
SpecPins
pins(const char *spec, std::vector<std::uint64_t> digests)
{
    SpecPins p{spec, {}};
    const char *sources[] = {"closed", "mmpp", "priority-trace"};
    std::size_t i = 0;
    for (const char *source : sources) {
        for (int agents : {10, 64, 100}) {
            if (i < digests.size())
                p.runs.push_back(PinnedRun{source, agents, digests[i]});
            ++i;
        }
    }
    return p;
}

INSTANTIATE_TEST_SUITE_P(
    SignalLevelSpecs, SettleDigestTest,
    ::testing::Values(
        pins("rr1",
            {0xc8b6ec7c001d58f6, 0x8dd8e31821e5a52f, 0x32ccb4824d6527b6,
             0x9e03c3622c7831a4, 0x326c5e43d75b84b1, 0xa9e7317b808fa600}),
        pins("rr1:priority=true",
            {0xc8b6ec7c001d58f6, 0x8dd8e31821e5a52f, 0x32ccb4824d6527b6,
             0x9e03c3622c7831a4, 0x326c5e43d75b84b1, 0xa9e7317b808fa600,
             0xc4fbf970c8a035f0, 0x95e5dc809e949c84, 0x5396ea7cbce1181a}),
        pins("rr2",
            {0x1e6337b2dfd01f8, 0xfc8293537b011f9f, 0x248514f98ca38dc8,
             0x5457fe297679dd5f, 0x6ef44fba5f8689c0, 0x7e624a22a30c19dd}),
        pins("rr3",
            {0x66c65b15f3cb23ec, 0x3818dc7b4256cb0a, 0xc794acc3b9219be1,
             0xa2a31ece4702a640, 0xe8bc603041aa5be8, 0xba3a2dfaca23452d}),
        pins("fcfs1",
            {0x67727e1b6ae09897, 0xf7592220b161f9e3, 0x7ce7876dcfe4ef56,
             0xb0192fd89b919f9e, 0x69d0db05b314dbc9, 0x9fa373184ae78230}),
        pins("fcfs1:bits=3,overflow=wrap",
            {0x67727e1b6ae09897, 0x78330295ca3e0523, 0xcd4fb2e6e8ec20c7,
             0x11ca80bfee7b84ea, 0xd2e8dac9afc0c117, 0x3d25c63049b0230e}),
        pins("fcfs2",
            {0xbbd7dde72f6a334d, 0xf73e8908e4ae709f, 0x7c6df6b3ca69ee45,
             0xaadaf7bfc04c1746, 0x68d41fecdd9245df, 0xebacf1e40e61a458}),
        pins("hybrid",
            {0x17dcd00ce258454a, 0x4b0bce251710654b, 0xc12b6d6036cd5823,
             0xc097523974543284, 0x3b963f319ca96f22, 0x2c6db48c4cd73064}),
        pins("fcfs1:bits=2",
            {0xc516cab95e0f54a2, 0xa1b62002824d1075, 0x6937046995161caf,
             0xe2cd9789ebc2ac30, 0x255c9f777f788a48, 0xd3f15c73db5f8b9b}),
        pins("fcfs2:bits=2,overflow=wrap",
            {0xd4fefb8b604817e1, 0xc3b679115e80cc61, 0xa7d001545194c1e5,
             0xa7cf04ea9cd81901, 0xd31963af536efc91, 0x954dee7618478443}),
        pins("hybrid:bits=2",
            {0xca690313177f4ba, 0xb1121c4bbd658286, 0xb2e27b59a904f65e,
             0xed039c27e5784d15, 0xedcca180a2ae8a05, 0x1ee5869222e3fdb3}),
        pins("fcfs1:priority=true",
            {0x67727e1b6ae09897, 0xf7592220b161f9e3, 0x7ce7876dcfe4ef56,
             0xb0192fd89b919f9e, 0x69d0db05b314dbc9, 0x9fa373184ae78230,
             0x71b7682bc7ac8556, 0xf89888bd1bd858f7, 0x1eb7dac64ca21ba9}),
        pins("fcfs1:priority=true,counting=always",
            {0x67727e1b6ae09897, 0xf7592220b161f9e3, 0x7ce7876dcfe4ef56,
             0xb0192fd89b919f9e, 0x69d0db05b314dbc9, 0x9fa373184ae78230,
             0xf731da7dae7c7d87, 0x228729fb4bd671b8, 0x7bdd368609be3ef5}),
        pins("fcfs2:priority=true,counting=dual",
            {0xbbd7dde72f6a334d, 0xf73e8908e4ae709f, 0x7c6df6b3ca69ee45,
             0xaadaf7bfc04c1746, 0x68d41fecdd9245df, 0xebacf1e40e61a458,
             0x140d7a6fe240cad, 0xc8d5b71fe7ea2842, 0x8c7515eb3a13e1d}),
        pins("wrr",
            {0xc8b6ec7c001d58f6, 0x8dd8e31821e5a52f, 0x32ccb4824d6527b6,
             0x8d9811245e5ffc4f, 0xe8569de512507a21, 0xb7f53f5de3b4617b}),
        pins("fixed:priority=true",
            {0xb36b1e830194e2fe, 0xe045f034fb556a62, 0x5a5e6fe986d7e0f1,
             0x8ee21b49d50d3dde, 0x101abf89d1bcc558, 0x689ce31a770c5595,
             0xba65263d0e68aaae, 0x62bc32dcf6c16778, 0xc23892e99aedb34e}),
        pins("aap1",
            {0xbfc782b34302f673, 0x2190891deccd2331, 0xcc1518356462c7f3,
             0xc029f3fa154a9699, 0xa385c64f3f226ee2, 0x718a533df697b0da}),
        pins("aap1:priority=true",
            {0xbfc782b34302f673, 0x2190891deccd2331, 0xcc1518356462c7f3,
             0xc029f3fa154a9699, 0xa385c64f3f226ee2, 0x718a533df697b0da,
             0x11a06cbb962c614b, 0x9811cddb05a22b3, 0x5982e3d835392c31}),
        pins("aap2",
            {0x87322fc6ab01f6cf, 0x11db6edcc0c22f4f, 0xc5e14cfe64eee716,
             0xae01373a31f0788c, 0x150e5ade85fc8024, 0xca3f274b3c93bfd7}),
        pins("aap2:priority=true",
            {0x87322fc6ab01f6cf, 0x11db6edcc0c22f4f, 0xc5e14cfe64eee716,
             0xae01373a31f0788c, 0x150e5ade85fc8024, 0xca3f274b3c93bfd7,
             0x2dfde9a48fdad80b, 0xe0a6cf2607d7e7a5, 0x8c48f7344622c453})),
    [](const ::testing::TestParamInfo<SpecPins> &info) {
        std::string name = info.param.spec;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

} // namespace
} // namespace busarb
