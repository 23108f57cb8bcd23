#include "obs/fairness_auditor.hh"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>
#include <utility>

#include "obs/export_format.hh"
#include "sim/logging.hh"

namespace busarb {

namespace {

/** @return `ticks` converted to bus-transaction units. */
double
toUnits(Tick ticks)
{
    return static_cast<double>(ticks) / static_cast<double>(kTicksPerUnit);
}

} // namespace

FairnessAuditorConfig
FairnessAuditorConfig::from(const ObserverConfig &observe, int num_agents,
                            std::string label)
{
    return {num_agents, unitsToTicks(observe.fairnessWindow),
            observe.bypassBound, unitsToTicks(observe.snapshotEvery),
            std::move(label)};
}

FairnessAuditor::FairnessAuditor(const FairnessAuditorConfig &config)
    : numAgents_(config.numAgents),
      bound_(config.bypassBound > 0 ? config.bypassBound
                                    : config.numAgents - 1),
      snapshotEvery_(config.snapshotEveryTicks),
      nextSnapshot_(config.snapshotEveryTicks),
      label_(config.label),
      agents_(static_cast<std::size_t>(config.numAgents)),
      windows_(config.windowTicks, config.numAgents)
{
    BUSARB_ASSERT(numAgents_ >= 1, "auditor needs at least one agent");
    BUSARB_ASSERT(snapshotEvery_ >= 0, "snapshot interval must be >= 0");
    for (AgentStats &a : agents_) {
        a.minWaitUnits = std::numeric_limits<double>::infinity();
        a.maxWaitUnits = -std::numeric_limits<double>::infinity();
    }
}

void
FairnessAuditor::onRequestPosted(const Request &req)
{
    handleRequestPosted(req.issued, req.agent, req.seq);
}

void
FairnessAuditor::onPassResolved(Tick now, Tick pass_start,
                                const Request &winner, bool)
{
    handleGrant(now, pass_start, winner.agent, winner.seq);
}

void
FairnessAuditor::onTenureStarted(const Request &req, Tick now)
{
    handleTenureStarted(now, req.seq);
}

void
FairnessAuditor::onTenureEnded(const Request &req, Tick now)
{
    handleTenureEnded(now, req.seq);
}

void
FairnessAuditor::consume(const TraceEvent &event)
{
    switch (event.kind) {
      case TraceEventKind::kRequestPosted:
        handleRequestPosted(event.tick, event.agent, event.seq);
        break;
      case TraceEventKind::kPassResolved:
        handleGrant(event.tick, event.passStart, event.agent, event.seq);
        break;
      case TraceEventKind::kTenureStarted:
        handleTenureStarted(event.tick, event.seq);
        break;
      case TraceEventKind::kTenureEnded:
        handleTenureEnded(event.tick, event.seq);
        break;
      case TraceEventKind::kPassStarted:
      case TraceEventKind::kCounterUpdate:
        advance(event.tick); // carry no fairness information
        break;
    }
}

void
FairnessAuditor::advance(Tick tick)
{
    BUSARB_ASSERT(!finished_, "event consumed after finish()");
    if (snapshotEvery_ > 0 && nextSnapshot_ <= tick)
        emitSnapshotsThrough(tick);
    lastTick_ = std::max(lastTick_, tick);
}

void
FairnessAuditor::handleRequestPosted(Tick now, AgentId agent,
                                     std::uint64_t seq)
{
    advance(now);
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents_,
                  "request from unknown agent ", agent);
    pending_.push_back({agent, seq, now, 0});
}

void
FairnessAuditor::handleGrant(Tick now, Tick pass_start, AgentId agent,
                             std::uint64_t seq)
{
    advance(now);
    if (agent == kNoAgent)
        return; // empty pass (fairness release / wrap) or retry
    ++grants_;

    // One walk finds the winner, counts the older requests and charges
    // the bypasses, without branching on any entry.
    auto winner = pending_.end();
    std::uint64_t older = 0;
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
        const bool granted = it->seq == seq;
        winner = granted ? it : winner;
        older += it->seq < seq;
        // Every other agent's request that was already posted when this
        // pass froze its competitors has now been bypassed once. The
        // strict `< pass_start` keeps a request posted during the pass
        // from counting it: that pass could never have admitted it, so
        // charging it would inflate RR past its N-1 external bound.
        it->bypasses += !granted & (it->agent != agent) &
                        (it->posted < pass_start);
    }
    if (winner == pending_.end()) {
        // A grant for a request we never saw posted (trace cut mid-run):
        // keep accounting consistent without inventing a wait.
        granted_.push_back({agent, seq, now, false});
        return;
    }

    AgentStats &stats = agentStats(agent);
    stats.maxBypasses = std::max(stats.maxBypasses, winner->bypasses);
    maxBypasses_ = std::max(maxBypasses_, winner->bypasses);
    if (winner->bypasses > static_cast<std::uint64_t>(bound_))
        ++boundViolations_;
    inversions_ += older;
    granted_.push_back({agent, seq, winner->posted, false});
    pending_.erase(winner);
}

void
FairnessAuditor::handleTenureStarted(Tick now, std::uint64_t seq)
{
    advance(now);
    for (GrantedRequest &g : granted_) {
        if (g.seq != seq)
            continue;
        g.started = true;
        const Tick starved = now - g.posted;
        AgentStats &stats = agentStats(g.agent);
        stats.maxStarvation = std::max(stats.maxStarvation, starved);
        maxStarvation_ = std::max(maxStarvation_, starved);
        return;
    }
}

void
FairnessAuditor::handleTenureEnded(Tick now, std::uint64_t seq)
{
    advance(now);
    for (auto it = granted_.begin(); it != granted_.end(); ++it) {
        if (it->seq != seq)
            continue;
        const double wait = toUnits(now - it->posted);
        AgentStats &stats = agentStats(it->agent);
        ++stats.completions;
        stats.waitSumUnits += wait;
        stats.minWaitUnits = std::min(stats.minWaitUnits, wait);
        stats.maxWaitUnits = std::max(stats.maxWaitUnits, wait);
        ++completions_;
        waitSumUnits_ += wait;
        windows_.record(now, it->agent - 1, wait);
        granted_.erase(it);
        return;
    }
}

void
FairnessAuditor::finish(Tick end)
{
    BUSARB_ASSERT(!finished_, "finish() called twice");
    BUSARB_ASSERT(end >= lastTick_,
                  "finish() tick precedes a consumed event");
    emitSnapshotsThrough(end);
    finished_ = true;
    lastTick_ = end;

    // Unserved requests starved from their post to the end of the run;
    // a granted request whose tenure never began did too.
    for (const PendingRequest &p : pending_) {
        const Tick starved = end - p.posted;
        AgentStats &stats = agentStats(p.agent);
        stats.maxStarvation = std::max(stats.maxStarvation, starved);
        maxStarvation_ = std::max(maxStarvation_, starved);
    }
    for (const GrantedRequest &g : granted_) {
        if (g.started)
            continue;
        const Tick starved = end - g.posted;
        AgentStats &stats = agentStats(g.agent);
        stats.maxStarvation = std::max(stats.maxStarvation, starved);
        maxStarvation_ = std::max(maxStarvation_, starved);
    }
    windows_.finishAt(end);
}

std::uint64_t
FairnessAuditor::agentMaxBypasses(AgentId agent) const
{
    return agentStats(agent).maxBypasses;
}

Tick
FairnessAuditor::agentMaxStarvationTicks(AgentId agent) const
{
    return agentStats(agent).maxStarvation;
}

double
FairnessAuditor::jainCompletions() const
{
    std::vector<double> shares;
    shares.reserve(agents_.size());
    for (const AgentStats &a : agents_)
        shares.push_back(static_cast<double>(a.completions));
    return jainIndex(shares);
}

double
FairnessAuditor::jainWaits() const
{
    std::vector<double> waits;
    for (const AgentStats &a : agents_) {
        if (a.completions > 0)
            waits.push_back(a.waitSumUnits /
                            static_cast<double>(a.completions));
    }
    return jainIndex(waits);
}

void
FairnessAuditor::exportMetrics(MetricsRegistry &m) const
{
    m.counter("fairness.grants").add(grants_);
    m.counter("fairness.completions").add(completions_);
    m.counter("fairness.bound_violations").add(boundViolations_);
    m.counter("fairness.inversions").add(inversions_);
    m.counter("fairness.windows").add(windows_.windowsClosed());
    m.gauge("fairness.max_bypasses")
        .set(static_cast<double>(maxBypasses_));
    m.gauge("fairness.max_starvation_units").set(toUnits(maxStarvation_));
    m.gauge("fairness.jain_completions").set(jainCompletions());
    m.gauge("fairness.jain_waits").set(jainWaits());

    const RunningStats &jain = windows_.windowJain();
    Gauge &wj = m.gauge("fairness.window_jain");
    if (jain.count() > 0)
        wj.mergeSummary(jain.count(), jain.sum(), jain.min(), jain.max());
    const RunningStats &wmean = windows_.windowValueMean();
    Gauge &ww = m.gauge("fairness.window_wait_mean");
    if (wmean.count() > 0)
        ww.mergeSummary(wmean.count(), wmean.sum(), wmean.min(),
                        wmean.max());

    for (AgentId a = 1; a <= numAgents_; ++a) {
        const AgentStats &stats = agentStats(a);
        const std::string prefix =
            "fairness." + agentMetricPrefix(a, numAgents_);
        m.counter(prefix + "completions").add(stats.completions);
        m.gauge(prefix + "max_bypasses")
            .set(static_cast<double>(stats.maxBypasses));
        m.gauge(prefix + "max_starvation_units")
            .set(toUnits(stats.maxStarvation));
        Gauge &wait = m.gauge(prefix + "wait");
        if (stats.completions > 0) {
            wait.mergeSummary(stats.completions, stats.waitSumUnits,
                              stats.minWaitUnits, stats.maxWaitUnits);
        }
    }
}

void
FairnessAuditor::emitSnapshotsThrough(Tick tick)
{
    if (snapshotEvery_ <= 0)
        return;
    while (nextSnapshot_ <= tick) {
        writeSnapshotLine(nextSnapshot_);
        nextSnapshot_ += snapshotEvery_;
    }
}

void
FairnessAuditor::writeSnapshotLine(Tick boundary)
{
    // A snapshot at boundary B reflects exactly the events with tick
    // < B; the still-live watchdog view extends unserved requests
    // through B. Every number goes through export_format so the line is
    // byte-stable across locales, platforms, and --jobs counts.
    Tick watchdog = maxStarvation_;
    for (const PendingRequest &p : pending_)
        watchdog = std::max(watchdog, boundary - p.posted);
    for (const GrantedRequest &g : granted_) {
        if (!g.started)
            watchdog = std::max(watchdog, boundary - g.posted);
    }

    std::ostringstream os;
    os << "{\"run\": ";
    writeJsonString(os, label_);
    os << ", \"t\": " << formatDouble(toUnits(boundary))
       << ", \"grants\": " << formatUint(grants_)
       << ", \"completions\": " << formatUint(completions_)
       << ", \"violations\": " << formatUint(boundViolations_)
       << ", \"inversions\": " << formatUint(inversions_)
       << ", \"max_bypasses\": " << formatUint(maxBypasses_)
       << ", \"max_starvation\": " << formatDouble(toUnits(watchdog))
       << ", \"jain_completions\": "
       << formatDouble(jainCompletions()) << ", \"agents\": [";
    for (AgentId a = 1; a <= numAgents_; ++a) {
        const AgentStats &stats = agentStats(a);
        Tick age = 0;
        for (const PendingRequest &p : pending_) {
            if (p.agent == a)
                age = std::max(age, boundary - p.posted);
        }
        if (a > 1)
            os << ", ";
        os << "{\"id\": " << formatInt(a) << ", \"completions\": "
           << formatUint(stats.completions) << ", \"mean_wait\": "
           << formatDouble(stats.completions == 0
                               ? 0.0
                               : stats.waitSumUnits /
                                     static_cast<double>(
                                         stats.completions))
           << ", \"max_bypasses\": " << formatUint(stats.maxBypasses)
           << ", \"pending_age\": " << formatDouble(toUnits(age))
           << "}";
    }
    os << "]}\n";
    snapshots_ += os.str();
}

void
FairnessAuditor::printSummary(std::ostream &os) const
{
    os << "fairness audit (" << numAgents_ << " agents, bypass bound "
       << bound_ << ")\n"
       << "  grants: " << grants_ << "  completions: " << completions_
       << "\n"
       << "  bound violations: " << boundViolations_
       << "  max bypasses: " << maxBypasses_ << "\n"
       << "  arrival-order inversions: " << inversions_ << "\n"
       << "  max starvation: " << formatDouble(toUnits(maxStarvation_))
       << " units\n"
       << "  Jain(completions): " << formatDouble(jainCompletions())
       << "  Jain(mean waits): " << formatDouble(jainWaits()) << "\n"
       << "  windows: " << windows_.windowsClosed()
       << "  mean window Jain: "
       << formatDouble(windows_.windowJain().mean()) << "\n"
       << "  agent  completions  mean_wait  max_bypass  max_starve\n";
    for (AgentId a = 1; a <= numAgents_; ++a) {
        const AgentStats &stats = agentStats(a);
        const double mean =
            stats.completions == 0
                ? 0.0
                : stats.waitSumUnits /
                      static_cast<double>(stats.completions);
        os << "  " << a << "  " << stats.completions << "  "
           << formatDouble(mean) << "  " << stats.maxBypasses << "  "
           << formatDouble(toUnits(stats.maxStarvation)) << "\n";
    }
}

} // namespace busarb
