#include "dist/result_codec.hh"

#include <algorithm>
#include <cstring>
#include <set>
#include <type_traits>

#include "stats/convergence.hh"
#include "stats/student_t.hh"

namespace busarb {

namespace {

/** Record magic: "BSRC" read as a big-endian u32. */
constexpr std::uint32_t kMagic = 0x42535243u;

/**
 * Decode caps, far above what the runner builds (1200 bins per
 * histogram): an edited record must not size an allocation.
 */
constexpr std::uint64_t kMaxHistogramBins = 1u << 20;
constexpr std::uint64_t kMaxRecordBins = 1u << 22;

// Fields travel as their in-memory bytes in host order: doubles as
// IEEE-754 bit patterns, so the round trip is bit-exact (decimal text
// would not be), and sizes as u64.
static_assert(sizeof(double) == 8 && sizeof(std::size_t) == 8,
              "the record layout assumes 8-byte doubles and sizes");

/** Writes a record. The checks are the decoder's; every write succeeds. */
struct Encoder
{
    std::vector<std::uint8_t> out;

    /** The one write primitive. */
    bool
    raw(const void *data, std::size_t n)
    {
        const auto *bytes = static_cast<const std::uint8_t *>(data);
        out.insert(out.end(), bytes, bytes + n);
        return true;
    }

    template <typename T, typename... Check>
    bool
    value(const T &v, Check...)
    {
        return raw(&v, sizeof v);
    }

    /** A bool, as a u32 0 or 1. */
    bool flag(bool b) { return value(std::uint32_t{b}); }

    /** u64 count, then the elements of a string or scalar vector. */
    template <typename Seq, typename... Length>
    bool
    seq(const Seq &s, Length...)
    {
        return value(s.size()) && raw(s.data(), s.size() * sizeof *s.data());
    }

    /** u64 count, then each element through `visit`. */
    template <typename T, typename Visit>
    bool
    list(const std::vector<T> &v, const T &, Visit visit)
    {
        value(v.size());
        for (const T &item : v)
            visit(item);
        return true;
    }

    bool histogram(const Histogram &h);
    bool registry(const MetricsRegistry &m);
    bool fail(const char *) { return false; }
};

/** Reads a record, bounds-checking and validating every field. */
struct Decoder
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;
    std::uint64_t binsLeft = kMaxRecordBins;
    std::string error = {};

    /** The one read primitive: false past the end. */
    bool
    raw(void *out, std::size_t n)
    {
        if (size - pos < n)
            return false;
        if (n != 0)
            std::memcpy(out, data + pos, n);
        pos += n;
        return true;
    }

    /** `check`, when given, vets the value read. */
    template <typename T>
    bool
    value(T &v, std::type_identity_t<bool (*)(T)> check = nullptr)
    {
        return raw(&v, sizeof v) && (check == nullptr || check(v));
    }

    bool
    flag(bool &b)
    {
        std::uint32_t v = 0;
        const bool ok = value(v) && v <= 1;
        b = v == 1;
        return ok;
    }

    /** A count of elements of at least `unit` bytes that fit. */
    bool
    count(std::uint64_t &n, std::size_t unit)
    {
        return value(n) && n <= (size - pos) / unit;
    }

    template <typename Seq>
    bool
    seq(Seq &s)
    {
        std::uint64_t n = 0;
        if (!count(n, sizeof *s.data()))
            return false;
        s.resize(n);
        return raw(s.data(), n * sizeof *s.data());
    }

    /** A per-agent series: exactly `agents` entries, at least one. */
    template <typename Seq>
    bool
    seq(Seq &s, int agents)
    {
        return agents >= 1 && seq(s) &&
               s.size() == static_cast<std::size_t>(agents);
    }

    /**
     * `blank` seeds each element before `visit` reads it. Elements are
     * added as they decode, so memory follows the bytes actually read.
     */
    template <typename T, typename Visit>
    bool
    list(std::vector<T> &v, const T &blank, Visit visit)
    {
        std::uint64_t n = 0;
        if (!count(n, sizeof n))
            return false;
        v.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            v.push_back(blank);
            if (!visit(v.back()))
                return false;
        }
        return true;
    }

    bool histogram(Histogram &out);
    bool registry(MetricsRegistry &m);

    bool
    fail(const char *what)
    {
        error = what;
        return false;
    }
};

bool
Encoder::histogram(const Histogram &h)
{
    // Sparse form: most sweep histograms concentrate mass in a few of
    // their 1200 bins, so (index, count) pairs beat a dense dump.
    std::size_t nonzero = 0;
    for (std::size_t i = 0; i < h.numBins(); ++i)
        nonzero += h.binCount(i) != 0 ? 1 : 0;
    value(h.binWidth());
    value(h.numBins());
    value(h.sum());
    value(h.overflow());
    value(nonzero);
    for (std::size_t i = 0; i < h.numBins(); ++i) {
        if (h.binCount(i) != 0) {
            value(i);
            value(h.binCount(i));
        }
    }
    return true;
}

bool
Decoder::histogram(Histogram &out)
{
    double width = 0.0, sum = 0.0;
    std::uint64_t bins = 0, overflow = 0, nonzero = 0;
    if (!value(width) || !value(bins) || !value(sum) || !value(overflow) ||
        !value(nonzero) || !(width > 0.0) || bins == 0 ||
        bins > kMaxHistogramBins || bins > binsLeft || nonzero > bins)
        return false;
    binsLeft -= bins;
    Histogram h(width, bins);
    for (std::uint64_t i = 0; i < nonzero; ++i) {
        std::uint64_t bin = 0, n = 0;
        if (!value(bin) || !value(n) || bin >= bins || n == 0)
            return false;
        h.restoreBin(bin, n);
    }
    h.restoreOverflow(overflow);
    h.restoreSum(sum);
    out = std::move(h);
    return true;
}

bool
Encoder::registry(const MetricsRegistry &m)
{
    // Four sections, each a count then a name and an entry per item.
    const auto section = [this](const auto &items, auto entry) {
        value(items.size());
        for (const auto &[name, item] : items) {
            seq(name);
            entry(item);
        }
    };
    section(m.counters(), [this](const auto &c) { value(c.value()); });
    section(m.gauges(), [this](const auto &g) {
        value(g.count());
        value(g.sum());
        value(g.min());
        value(g.max());
    });
    section(m.histograms(), [this](const auto &h) { histogram(h); });
    section(m.annotations(), [this](const auto &text) { seq(text); });
    return true;
}

bool
Decoder::registry(MetricsRegistry &m)
{
    // The registry asserts when a name changes kind, so a name may
    // appear once in all four sections.
    std::string name;
    std::set<std::string> names;
    const auto section = [&](auto entry) {
        std::uint64_t n = 0;
        if (!value(n))
            return false;
        for (std::uint64_t i = 0; i < n; ++i)
            if (!seq(name) || !names.insert(name).second || !entry())
                return false;
        return true;
    };
    return section([&] {
               std::uint64_t v = 0;
               if (!value(v))
                   return false;
               m.counter(name).add(v);
               return true;
           }) &&
           section([&] {
               std::uint64_t samples = 0;
               double sum = 0.0, min = 0.0, max = 0.0;
               if (!value(samples) || !value(sum) || !value(min) ||
                   !value(max))
                   return false;
               // An empty gauge's min/max are +/-inf sentinels;
               // replaying them through mergeSummary would corrupt
               // them, so only non-empty gauges carry samples back in.
               Gauge &gauge = m.gauge(name);
               if (samples > 0)
                   gauge.mergeSummary(samples, sum, min, max);
               return true;
           }) &&
           section([&] {
               Histogram h(1.0, 1);
               if (!histogram(h))
                   return false;
               m.histogram(name, h.binWidth(), h.numBins()) = h;
               return true;
           }) &&
           section([&] {
               std::string text;
               if (!seq(text))
                   return false;
               m.setAnnotation(name, text);
               return true;
           });
}

bool
knownVerdict(ConvergenceVerdict v)
{
    return static_cast<unsigned>(v) <=
           static_cast<unsigned>(ConvergenceVerdict::kSaturated);
}

template <typename Io, typename Batch>
bool
walkBatch(Io &io, Batch &b, int agents)
{
    return io.value(b.duration) && io.seq(b.completions, agents) &&
           io.value(b.waitMean) && io.value(b.waitStddev) &&
           io.seq(b.productive, agents) && io.seq(b.cycle, agents) &&
           io.seq(b.waitSum, agents) && io.seq(b.overlapSum, agents) &&
           io.value(b.utilization) && io.value(b.passes) &&
           io.value(b.retryPasses);
}

/**
 * The record layout, stated once: every field of a ScenarioResult in
 * record order. Instantiated with the Encoder over a const result and
 * with the Decoder over the result it fills, which also checks what
 * the coordinator's emission relies on (numAgents is a u32 on the
 * wire, so one above INT_MAX reads back negative).
 */
template <typename Io, typename Result>
bool
walkResult(Io &io, Result &r)
{
    auto &w = r.workload;
    auto &h = r.health;
    // The place of a retired list of per-agent histograms: encode
    // writes its count, 0, and decode accepts only 0.
    std::uint64_t retired = 0;
    const auto section = [&io](bool ok, const char *what) {
        return ok || io.fail(what);
    };
    return section(io.seq(r.protocolName) && io.seq(r.spec) &&
                       io.seq(r.workloadSpec) &&
                       io.value(r.numAgents, [](int n) { return n >= 0; }) &&
                       io.value(r.confidence, supportedConfidence) &&
                       io.value(r.elapsedMs),
                   "bad scenario header") &&
           section(io.flag(w.openLoop) && io.flag(w.saturated) &&
                       io.value(w.issued) && io.value(w.finalBacklog) &&
                       io.value(w.offeredRate) &&
                       io.value(w.carriedRate),
                   "bad workload stats") &&
           section(io.list(r.batches, BatchStats{},
                           [&](auto &b) {
                               return walkBatch(io, b, r.numAgents);
                           }),
                   "bad batch record") &&
           section(io.histogram(r.waitHistogram),
                   "bad waiting-time histogram") &&
           section(io.value(retired,
                            [](std::uint64_t n) { return n == 0; }),
                   "bad per-agent histogram") &&
           section(io.seq(r.binaryTrace), "bad binary trace") &&
           section(io.registry(r.metrics), "bad metrics registry") &&
           section(io.seq(r.fairnessSnapshots) &&
                       io.seq(r.healthSnapshots),
                   "bad snapshot text") &&
           section(io.flag(h.enabled) &&
                       io.value(h.verdict, knownVerdict) &&
                       io.value(h.batches) && io.value(h.wait.value) &&
                       io.value(h.wait.halfWidth) &&
                       io.value(h.waitRelHalfWidth) &&
                       io.value(h.waitLag1) && io.value(h.waitMserCut) &&
                       io.seq(h.waitRelHwTrajectory) &&
                       io.value(h.utilRelHalfWidth) &&
                       io.value(h.utilLag1),
                   "bad health report");
}

} // namespace

std::vector<std::uint8_t>
encodeScenarioResult(const ScenarioResult &result)
{
    Encoder io;
    io.value(kMagic);
    io.value(kResultCodecVersion);
    walkResult(io, result);
    return std::move(io.out);
}

bool
decodeScenarioResult(const std::uint8_t *data, std::size_t size,
                     ScenarioResult &out, std::string &error)
{
    Decoder io{data, size};
    const auto fail = [&error](const std::string &what) {
        error = what;
        return false;
    };

    std::uint32_t magic = 0;
    std::uint32_t version = 0;
    if (!io.value(magic) || !io.value(version))
        return fail("truncated record header");
    if (magic != kMagic)
        return fail("bad record magic");
    if (version != kResultCodecVersion)
        return fail("record version mismatch");

    ScenarioResult result;
    if (!walkResult(io, result))
        return fail(io.error);
    if (io.pos != io.size)
        return fail("trailing bytes after record");
    // Only what encode writes decodes: an edit the checks above let
    // through (unordered bins, an empty gauge's sentinels, a NaN
    // bound) would re-encode to other bytes.
    const std::vector<std::uint8_t> canonical = encodeScenarioResult(result);
    if (!std::equal(canonical.begin(), canonical.end(), data, data + size))
        return fail("non-canonical record");
    out = std::move(result);
    error.clear();
    return true;
}

} // namespace busarb
