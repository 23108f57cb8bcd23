#include "workload/trace_workload.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "sim/logging.hh"

namespace busarb {

void
RequestTrace::append(Tick when, AgentId agent, bool priority)
{
    BUSARB_ASSERT(agent >= 1, "invalid agent id: ", agent);
    BUSARB_ASSERT(when >= 0, "negative trace time");
    BUSARB_ASSERT(entries_.empty() || when >= entries_.back().when,
                  "trace times must be non-decreasing");
    entries_.push_back(TraceEntry{when, agent, priority});
    maxAgent_ = std::max(maxAgent_, agent);
}

bool
RequestTrace::parse(std::istream &is, RequestTrace &out, std::string &error)
{
    RequestTrace trace;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string time_text, agent_text, flag;
        if (!(fields >> time_text))
            continue; // blank or comment-only line
        const auto fail = [&](const std::string &why) {
            error = "line " + std::to_string(line_no) + ": " + why;
            return false;
        };
        char *end = nullptr;
        const double when_units = std::strtod(time_text.c_str(), &end);
        if (end == time_text.c_str() || *end != '\0' ||
            !fitsTickClock(when_units)) {
            std::ostringstream os;
            os << "time must be a number in [0, " << ticksToUnits(kMaxTick)
               << ") units, got '" << time_text << "'";
            return fail(os.str());
        }
        if (!(fields >> agent_text))
            return fail("missing agent id");
        AgentId agent = 0;
        const char *last = agent_text.data() + agent_text.size();
        const auto [stop, ec] =
            std::from_chars(agent_text.data(), last, agent);
        if (ec != std::errc() || stop != last || agent < 1)
            return fail("bad agent id '" + agent_text + "'");
        bool priority = false;
        if (fields >> flag) {
            if (flag != "p" && flag != "P")
                return fail("unexpected token '" + flag + "'");
            priority = true;
            if (fields >> flag)
                return fail("unexpected token '" + flag + "'");
        }
        const Tick when = unitsToTicks(when_units);
        if (!trace.entries_.empty() && when < trace.entries_.back().when)
            return fail("timestamps must be non-decreasing");
        trace.append(when, agent, priority);
    }
    out = std::move(trace);
    return true;
}

void
RequestTrace::write(std::ostream &os) const
{
    os << "# busarb request trace: <time> <agent> [p]\n";
    for (const auto &e : entries_) {
        os << ticksToUnits(e.when) << " " << e.agent;
        if (e.priority)
            os << " p";
        os << "\n";
    }
}

RequestTrace
RequestTrace::poisson(int num_agents, double total_rate, double length,
                      Rng rng)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    BUSARB_ASSERT(total_rate > 0.0, "rate must be positive");
    BUSARB_ASSERT(length > 0.0, "length must be positive");
    RequestTrace trace;
    double t = 0.0;
    while (true) {
        t += -std::log(rng.uniformPositive()) / total_rate;
        if (t >= length)
            break;
        const AgentId agent =
            1 + static_cast<AgentId>(
                    rng.below(static_cast<std::uint64_t>(num_agents)));
        trace.append(unitsToTicks(t), agent);
    }
    return trace;
}

} // namespace busarb
