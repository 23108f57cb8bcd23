/**
 * @file
 * google-benchmark microbenchmarks for the simulation substrate: event
 * queue throughput, the arbitration pass's wired-OR settle and
 * maximum finding, and full end-to-end simulation speed.
 */

#include <algorithm>
#include <cstdint>
#include <ctime>
#include <functional>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "bus/arbitration_pass.hh"
#include "experiment/protocol_registry.hh"
#include "experiment/runner.hh"
#include "random/rng.hh"
#include "sim/event_queue.hh"
#include "support/async_contention.hh"
#include "support/settle_oracle.hh"

namespace {

using namespace busarb;

EventQueuePolicy
policyArg(std::int64_t value)
{
    return value == 0 ? EventQueuePolicy::kCalendar
                      : EventQueuePolicy::kHeap;
}

const char *
policyLabel(std::int64_t value)
{
    return value == 0 ? "calendar" : "heap";
}

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q(policyArg(state.range(1)));
        int sink = 0;
        for (int i = 0; i < batch; ++i)
            q.schedule(i % 97, [&sink] { ++sink; });
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * batch);
    state.SetLabel(policyLabel(state.range(1)));
}
BENCHMARK(BM_EventQueueScheduleRun)
    ->Args({1000, 0})
    ->Args({10000, 0})
    ->Args({1000, 1})
    ->Args({10000, 1});

void
BM_EventQueueSteadyState(benchmark::State &state)
{
    // The simulator's steady-state shape: a fixed population of
    // self-rescheduling events (one per agent), exactly what the arena
    // free-list and calendar year-lap are tuned for. The functor is
    // trivially copyable and fits the callback SBO, so the benchmark
    // measures the queue, not std::function copies.
    struct SelfSched
    {
        EventQueue *q;
        std::int64_t *remaining;
        Tick period;

        void
        operator()() const
        {
            if (--*remaining > 0)
                q->scheduleIn(period, SelfSched{*this});
        }
    };
    const int population = static_cast<int>(state.range(0));
    const std::int64_t events = 50000;
    for (auto _ : state) {
        EventQueue q(policyArg(state.range(1)),
                     CalendarTuning::forExpectedDepth(
                         static_cast<std::size_t>(population)));
        std::int64_t remaining = events;
        for (int i = 0; i < population; ++i) {
            // Unit-scale periods (kTicksPerUnit = 1e6): the timestamp
            // distribution the simulator actually produces.
            const Tick period = (90 + i) * 10'000;
            q.scheduleIn(period, SelfSched{&q, &remaining, period});
        }
        q.run();
        benchmark::DoNotOptimize(q.numExecuted());
    }
    state.SetItemsProcessed(state.iterations() * events);
    state.SetLabel(policyLabel(state.range(1)));
}
BENCHMARK(BM_EventQueueSteadyState)
    ->Args({20, 0})
    ->Args({20, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void
BM_EventQueuePopAllocations(benchmark::State &state)
{
    // Regression pin for the runOne() copy bug: scheduling and popping
    // simulator-shaped callbacks must perform ZERO per-pop callback
    // heap allocations — every callable fits EventCallback's inline
    // buffer and is moved, never copied, out of the queue.
    const std::uint64_t before = EventCallback::heapAllocations();
    std::int64_t pops = 0;
    for (auto _ : state) {
        EventQueue q;
        int sink = 0;
        for (int i = 0; i < 1000; ++i) {
            q.schedule(i % 97, [&sink, &q, i] { sink += i + (int)q.now(); });
        }
        q.run();
        pops += 1000;
        benchmark::DoNotOptimize(sink);
    }
    const std::uint64_t allocs =
        EventCallback::heapAllocations() - before;
    if (allocs != 0) {
        state.SkipWithError("callback heap allocations on the pop path");
    }
    state.counters["callback_heap_allocs"] =
        static_cast<double>(allocs);
    state.SetItemsProcessed(pops);
}
BENCHMARK(BM_EventQueuePopAllocations);

void
BM_ArbitrationPassSettle(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const int n = static_cast<int>(state.range(1));
    Rng rng(42);
    std::vector<test::Competitor> competitors;
    std::vector<std::uint64_t> used;
    for (int i = 0; i < n; ++i) {
        std::uint64_t w;
        do {
            w = 1 + rng.below((1ULL << k) - 1);
        } while (std::find(used.begin(), used.end(), w) != used.end());
        used.push_back(w);
        competitors.push_back(test::Competitor{i + 1, w});
    }
    const ArbitrationPass pass = test::loadPass(k, competitors);
    for (auto _ : state) {
        auto result = pass.settle();
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}
// {14, 64} is fcfs1's line count with all 64 agents competing, the shape
// wide64-settle spends its settle time on (two mask words).
BENCHMARK(BM_ArbitrationPassSettle)
    ->Args({6, 8})
    ->Args({10, 16})
    ->Args({16, 32})
    ->Args({14, 64});

void
BM_AsyncContentionSettle(benchmark::State &state)
{
    const int k = static_cast<int>(state.range(0));
    const int n = static_cast<int>(state.range(1));
    AsyncSettleModel arb(k);
    Rng rng(43);
    std::vector<PlacedCompetitor> competitors;
    std::vector<std::uint64_t> used;
    for (int i = 0; i < n; ++i) {
        std::uint64_t w;
        do {
            w = 1 + rng.below((1ULL << k) - 1);
        } while (std::find(used.begin(), used.end(), w) != used.end());
        used.push_back(w);
        competitors.push_back(
            PlacedCompetitor{i + 1, w, rng.uniform()});
    }
    for (auto _ : state) {
        auto result = arb.settle(competitors);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AsyncContentionSettle)->Args({6, 8})->Args({10, 16});

void
BM_ArbitrationPassWinner(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    std::vector<test::Competitor> competitors;
    for (int i = 0; i < n; ++i) {
        const auto word = static_cast<std::uint64_t>(
            (i * 2654435761U) % 100000 + i + 1);
        competitors.push_back(test::Competitor{i + 1, word});
    }
    const ArbitrationPass pass = test::loadPass(17, competitors);
    for (auto _ : state) {
        auto winner = pass.winner();
        benchmark::DoNotOptimize(winner);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ArbitrationPassWinner)->Arg(10)->Arg(64);

/** The saturated bus every BM_FullSimulation* family runs. */
ScenarioConfig
saturatedScenario(int agents)
{
    ScenarioConfig config = equalLoadScenario(agents, 2.0);
    config.numBatches = 2;
    config.batchSize = 5000;
    config.warmup = 1000;
    return config;
}

/** @return CPU time consumed by the calling thread, in seconds. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
}

/** @return The median of `values` (reorders them). */
double
median(std::vector<double> &values)
{
    const auto mid = values.begin() + values.size() / 2;
    std::nth_element(values.begin(), mid, values.end());
    return *mid;
}

void
BM_FullSimulation(benchmark::State &state)
{
    // End-to-end completions per second for a saturated 10-agent bus,
    // through either event-queue kernel.
    const char *keys[] = {"rr1", "fcfs1", "aap1"};
    const char *key = keys[state.range(0)];
    ScenarioConfig config = saturatedScenario(10);
    config.eventQueuePolicy = policyArg(state.range(1));
    const ProtocolFactory factory = ProtocolRegistry::builtin().fromSpec(key);
    for (auto _ : state) {
        auto result = runScenario(config, factory);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    state.SetLabel(std::string(key) + "/" +
                   policyLabel(state.range(1)));
}
BENCHMARK(BM_FullSimulation)
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({2, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({2, 1});

void
BM_FullSimulationAgents20(benchmark::State &state)
{
    // The acceptance-gate workload: the paper's saturated 20-agent bus
    // under rr1 on the calendar kernel and the reference heap, timed
    // like BM_FullSimulationProfiled (back-to-back pairs in thread CPU
    // time, alternating order), so host drift cancels within a pair.
    // check_bench.sh gates the median per-pair calendar/heap ratio of
    // events per second (true simulator events: the queue's executed
    // count) at 1.10x by default (BUSARB_BENCH_MIN_CAL_VS_HEAP). Each
    // policy also reports transactions per second: the events one
    // transaction costs is a property of the bus engine (three since
    // the pass start runs in the queue's same-tick slot), so only the
    // transaction rate compares across such changes.
    struct Kernel
    {
        ScenarioConfig config;
        double events = 0.0;
        double transactions = 0.0;
        double seconds = 0.0;
    };
    Kernel calendar{saturatedScenario(20)};
    calendar.config.profile = true; // exposes the executed-event count
    Kernel heap{calendar.config};
    heap.config.eventQueuePolicy = EventQueuePolicy::kHeap;
    const ProtocolFactory rr1 = ProtocolRegistry::builtin().fromSpec("rr1");
    const auto eventsPerSecond = [&rr1](Kernel &kernel) {
        const double start = threadCpuSeconds();
        const auto result = runScenario(kernel.config, rr1);
        const double seconds = threadCpuSeconds() - start;
        const double events =
            static_cast<double>(result.profile.eventsExecuted);
        kernel.events += events;
        kernel.transactions +=
            static_cast<double>(result.profile.completions);
        kernel.seconds += seconds;
        return events / seconds;
    };
    std::vector<double> ratios;
    for (auto _ : state) {
        const bool heapFirst = ratios.size() % 2 == 1;
        const double first = eventsPerSecond(heapFirst ? heap : calendar);
        const double second = eventsPerSecond(heapFirst ? calendar : heap);
        ratios.push_back(heapFirst ? second / first : first / second);
    }
    state.counters["calendar_vs_heap"] = median(ratios);
    state.counters["calendar_events_per_second"] =
        calendar.events / calendar.seconds;
    state.counters["heap_events_per_second"] = heap.events / heap.seconds;
    state.counters["calendar_tx_per_second"] =
        calendar.transactions / calendar.seconds;
    state.counters["heap_tx_per_second"] =
        heap.transactions / heap.seconds;
}
BENCHMARK(BM_FullSimulationAgents20)->Iterations(30);

void
BM_FullSimulationObserved(benchmark::State &state)
{
    // Same saturated run as BM_FullSimulation/rr1, with the obs layer
    // at each level: 0 = no tracer (the null-sink default, which must
    // cost nothing measurable vs BM_FullSimulation), 1 = binary trace
    // capture, 2 = capture plus a flight recorder, 3 = the fairness
    // auditor alone (so its streaming bookkeeping can be priced
    // against the untraced baseline).
    ScenarioConfig config = saturatedScenario(10);
    switch (state.range(0)) {
      case 3:
        config.observe.fairness = true;
        break;
      case 2:
        config.observe.flightRecorder = 256;
        [[fallthrough]];
      case 1:
        config.observe.captureTrace = true;
        break;
      default:
        break;
    }
    const ProtocolFactory rr1 = ProtocolRegistry::builtin().fromSpec("rr1");
    for (auto _ : state) {
        auto result = runScenario(config, rr1);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    static const char *labels[] = {"untraced", "binary-trace",
                                   "trace+flight-recorder",
                                   "fairness-auditor"};
    state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_FullSimulationObserved)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_FullSimulationProfiled(benchmark::State &state)
{
    // The self-profiler overhead guard (the "< 2% overhead" budget): the
    // same saturated rr1 run as BM_FullSimulation unprofiled and with the
    // full per-phase timer + event-queue probe set (--profile), back to
    // back in alternating order, priced in thread CPU time. Host speed
    // drift moves both halves of a pair together and preemption is not
    // charged, so the median per-pair overhead is steady on a shared
    // machine. Compare against a -DBUSARB_PROFILING=OFF build to price
    // the compiled-in-but-idle probes as well.
    const ScenarioConfig plain = saturatedScenario(10);
    ScenarioConfig profiled = plain;
    profiled.profile = true;
    const ProtocolFactory rr1 = ProtocolRegistry::builtin().fromSpec("rr1");
    const auto cpuSeconds = [&rr1](const ScenarioConfig &config) {
        const double start = threadCpuSeconds();
        auto result = runScenario(config, rr1);
        benchmark::DoNotOptimize(result);
        return threadCpuSeconds() - start;
    };
    std::vector<double> overheadPct;
    for (auto _ : state) {
        const bool profiledFirst = overheadPct.size() % 2 == 1;
        const double first = cpuSeconds(profiledFirst ? profiled : plain);
        const double second = cpuSeconds(profiledFirst ? plain : profiled);
        const double off = profiledFirst ? second : first;
        const double on = profiledFirst ? first : second;
        overheadPct.push_back((on - off) / off * 100.0);
    }
    state.counters["overhead_pct"] = median(overheadPct);
}
BENCHMARK(BM_FullSimulationProfiled)->Iterations(30);

void
BM_RunHealthMonitored(benchmark::State &state)
{
    // The convergence monitor's cost is one addBatch per batch — it
    // must be invisible next to the simulation itself (0 = off, 1 =
    // --health, 2 = --health with the snapshot stream).
    ScenarioConfig config = saturatedScenario(10);
    config.observe.health = state.range(0) >= 1;
    config.observe.healthSnapshots = state.range(0) >= 2;
    const ProtocolFactory rr1 = ProtocolRegistry::builtin().fromSpec("rr1");
    for (auto _ : state) {
        auto result = runScenario(config, rr1);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            (config.numBatches * config.batchSize +
                             config.warmup));
    static const char *labels[] = {"unmonitored", "health",
                                   "health+snapshots"};
    state.SetLabel(labels[state.range(0)]);
}
BENCHMARK(BM_RunHealthMonitored)->Arg(0)->Arg(1)->Arg(2);

} // namespace

BENCHMARK_MAIN();
