#include "obs/profiler.hh"

#include <ostream>

#include "obs/export_format.hh"
#include "sim/logging.hh"

namespace busarb {

const char *
runPhaseName(RunPhase phase)
{
    switch (phase) {
      case RunPhase::kWarmup:
        return "warmup";
      case RunPhase::kMeasure:
        return "measure";
      case RunPhase::kDrain:
        return "drain";
    }
    BUSARB_PANIC("unknown phase ", static_cast<int>(phase));
}

double
ProfileReport::totalSeconds() const
{
    double total = 0.0;
    for (double s : phaseSeconds)
        total += s;
    return total;
}

double
ProfileReport::eventsPerSecond() const
{
    const double total = totalSeconds();
    if (total <= 0.0 || eventsExecuted == 0)
        return 0.0;
    return static_cast<double>(eventsExecuted) / total;
}

void
ProfileReport::exportMetrics(MetricsRegistry &m) const
{
    // Only simulation-derived quantities: these are identical at any
    // --jobs count, so they are safe in --metrics-out comparisons.
    m.counter("profile.events_executed").add(eventsExecuted);
    m.counter("profile.queue.max_depth").add(maxQueueDepth);
    m.counter("profile.arb.passes").add(arbitrationPasses);
    m.counter("profile.arb.retry_passes").add(retryPasses);
    m.counter("profile.completions").add(completions);
    for (std::size_t b = 0; b < queueDepthLog2.size(); ++b) {
        if (queueDepthLog2[b] == 0)
            continue;
        std::string name = "profile.queue.depth_log2.";
        if (b < 10)
            name += '0';
        name += std::to_string(b);
        m.counter(name).add(queueDepthLog2[b]);
    }
}

void
ProfileReport::print(const std::string &label, std::ostream &os) const
{
    os << "profile[" << label << "]:";
    if (!enabled) {
        os << " (profiling compiled out)\n";
        return;
    }
    os << " events=" << formatUint(eventsExecuted) << " events/s="
       << formatDouble(eventsPerSecond()) << " max_queue_depth="
       << formatUint(maxQueueDepth) << " passes="
       << formatUint(arbitrationPasses) << " retries="
       << formatUint(retryPasses) << "\n";
    os << "profile[" << label << "]: wall";
    for (std::size_t p = 0; p < kNumRunPhases; ++p) {
        os << " " << runPhaseName(static_cast<RunPhase>(p)) << "="
           << formatDouble(phaseSeconds[p]) << "s";
    }
    os << " total=" << formatDouble(totalSeconds()) << "s\n";
    os << "profile[" << label << "]: queue depth log2 buckets:";
    bool any = false;
    for (std::size_t b = 0; b < queueDepthLog2.size(); ++b) {
        if (queueDepthLog2[b] == 0)
            continue;
        any = true;
        os << " [" << (1ULL << b) << "..]=" << formatUint(queueDepthLog2[b]);
    }
    if (!any)
        os << " (empty)";
    os << "\n";
}

void
Profiler::finish(const EventQueue &queue, std::uint64_t passes,
                 std::uint64_t retries, std::uint64_t completions)
{
    report_.enabled = BUSARB_PROFILING_ENABLED != 0;
    report_.eventsExecuted = queue.numExecuted();
    report_.maxQueueDepth = queue.profileMaxDepth();
    report_.queueDepthLog2 = queue.profileDepthHistogram();
    report_.arbitrationPasses = passes;
    report_.retryPasses = retries;
    report_.completions = completions;
}

} // namespace busarb
