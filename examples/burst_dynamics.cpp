/**
 * @file
 * Burst-dynamics demo: watch a saturated burst drain, window by window.
 *
 * All the fair protocols drain a backlog at the same rate (the bus is
 * work-conserving), but they hand out the pain very differently. This
 * example slams an 8-agent bus with a synchronized burst of requests
 * per agent, samples the backlog and utilization every two units with
 * a self-rescheduling event, and prints drain curves for two protocols
 * side by side — plus which agent was still waiting at the end under
 * each.
 *
 * Usage: burst_dynamics [burst_per_agent]   (default 6)
 */

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>

#include "experiment/protocol_registry.hh"
#include "experiment/table.hh"
#include "sim/event_queue.hh"

namespace {

using namespace busarb;

/** The bus at the end of one sampling window. */
struct Sample
{
    double time = 0.0;
    std::uint64_t outstanding = 0; ///< requests waiting or in service
    double utilization = 0.0;      ///< busy share of the window
};

struct DrainResult
{
    std::vector<Sample> samples;
    double lastServiceTime = 0.0;
    double agentOneFirstService = 0.0;
};

DrainResult
drain(const char *key, int n, int burst)
{
    EventQueue queue;
    Bus bus(queue, ProtocolRegistry::builtin().fromSpec(key)(), n, {});
    struct LastSeen : BusObserver
    {
        double time = 0.0;
        double agentOneFirst = 0.0;
        void onServiceStart(const Request &, Tick) override {}
        void
        onServiceEnd(const Request &req, Tick now) override
        {
            time = ticksToUnits(now);
            if (req.agent == 1 && agentOneFirst == 0.0)
                agentOneFirst = time;
        }
    } last;
    bus.setObserver(&last);
    // Sample at the end of every window; busyTicks is credited at
    // tenure start for the whole transfer, so a window's share can
    // exceed 1 and is clamped.
    DrainResult result;
    const Tick window = unitsToTicks(2.0);
    Tick last_busy = bus.busyTicks();
    std::function<void()> sample = [&] {
        const Tick busy = bus.busyTicks();
        result.samples.push_back(
            {ticksToUnits(queue.now()), bus.outstandingRequests(),
             std::min(1.0, static_cast<double>(busy - last_busy) /
                               static_cast<double>(window))});
        last_busy = busy;
        queue.scheduleIn(window, [&] { sample(); }, kPriStats);
    };
    queue.scheduleIn(window, [&] { sample(); }, kPriStats);
    queue.schedule(0, [&, n, burst] {
        for (int b = 0; b < burst; ++b) {
            for (AgentId a = 1; a <= n; ++a)
                bus.postRequest(a);
        }
    });
    const Tick horizon = unitsToTicks(2.0 * n * burst);
    queue.run(horizon);
    result.lastServiceTime = last.time;
    result.agentOneFirstService = last.agentOneFirst;
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    const int burst = (argc > 1) ? std::atoi(argv[1]) : 6;
    const int n = 8;
    std::cout << "Burst drain: " << n << " agents x " << burst
              << " simultaneous requests each (" << n * burst
              << " total)\n\n";

    const auto rr = drain("rr1", n, burst);
    const auto fixed = drain("fixed", n, burst);

    TextTable table({"t", "backlog RR", "util RR", "backlog fixed",
                     "util fixed"});
    const std::size_t rows =
        std::min(rr.samples.size(), fixed.samples.size());
    for (std::size_t i = 0; i < rows; ++i) {
        if (rr.samples[i].outstanding == 0 &&
            fixed.samples[i].outstanding == 0) {
            break;
        }
        table.addRow({
            formatFixed(rr.samples[i].time, 1),
            std::to_string(rr.samples[i].outstanding),
            formatFixed(rr.samples[i].utilization, 2),
            std::to_string(fixed.samples[i].outstanding),
            formatFixed(fixed.samples[i].utilization, 2),
        });
    }
    table.print(std::cout);

    std::cout << "\nBoth drain at one transfer per unit (work "
                 "conservation), finishing at t = "
              << formatFixed(rr.lastServiceTime, 1) << " vs "
              << formatFixed(fixed.lastServiceTime, 1)
              << ".\nBut agent 1 gets its first transfer at t = "
              << formatFixed(rr.agentOneFirstService, 1)
              << " under RR (one per cycle) versus t = "
              << formatFixed(fixed.agentOneFirstService, 1)
              << " under fixed\npriority, which serves everything above "
                 "it first.\n";
    return 0;
}
