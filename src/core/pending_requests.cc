#include "core/pending_requests.hh"

#include <utility>

#include "sim/logging.hh"

namespace busarb {

void
PendingRequests::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    slot_.assign(static_cast<std::size_t>(num_agents) + 1, {});
    overflow_.assign(slot_.size(), {});
    mask_.assign((slot_.size() + 63) / 64, 0);
    priority_.assign(mask_.size(), 0);
    several_.assign(mask_.size(), 0);
    total_ = 0;
}

PendingEntry &
PendingRequests::add(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents(),
                  "agent id out of range: ", req.agent);
    const auto a = static_cast<std::size_t>(req.agent);
    ++total_;
    if (!hasAgent(req.agent)) {
        slot_[a] = PendingEntry{req, 0};
        setMaskBit(mask_, req.agent, true);
        setMaskBit(priority_, req.agent, req.priority);
        return slot_[a];
    }
    overflow_[a].push_back(PendingEntry{req, 0});
    setMaskBit(several_, req.agent, true);
    return overflow_[a].back();
}

PendingEntry &
PendingRequests::oldest(AgentId agent)
{
    BUSARB_ASSERT(hasAgent(agent), "agent ", agent,
                  " has no pending request");
    return slot_[static_cast<std::size_t>(agent)];
}

const PendingEntry &
PendingRequests::oldest(AgentId agent) const
{
    BUSARB_ASSERT(hasAgent(agent), "agent ", agent,
                  " has no pending request");
    return slot_[static_cast<std::size_t>(agent)];
}

PendingEntry *
PendingRequests::oldestPriority(AgentId agent)
{
    PendingEntry *found = nullptr;
    forEachOfAgent(agent, [&](PendingEntry &e) {
        if (found == nullptr && e.req.priority)
            found = &e;
    });
    return found;
}

PendingEntry *
PendingRequests::findBySeq(AgentId agent, std::uint64_t seq)
{
    BUSARB_ASSERT(agent >= 1 && agent <= numAgents(),
                  "agent id out of range: ", agent);
    if (!hasAgent(agent))
        return nullptr;
    const auto a = static_cast<std::size_t>(agent);
    if (slot_[a].req.seq == seq)
        return &slot_[a];
    for (auto &entry : overflow_[a]) {
        if (entry.req.seq == seq)
            return &entry;
    }
    return nullptr;
}

Request
PendingRequests::popBySeq(AgentId agent, std::uint64_t seq)
{
    const auto a = static_cast<std::size_t>(agent);
    BUSARB_ASSERT(hasAgent(agent), "agent ", agent,
                  " has no pending request");
    if (slot_[a].req.seq == seq)
        return popOldest(agent);
    auto &dq = overflow_[a];
    for (auto it = dq.begin(); it != dq.end(); ++it) {
        if (it->req.seq == seq) {
            const Request req = it->req;
            dq.erase(it);
            setMaskBit(several_, agent, !dq.empty());
            BUSARB_ASSERT(total_ > 0, "pending count underflow");
            --total_;
            return req;
        }
    }
    BUSARB_PANIC("request seq ", seq, " not pending for agent ", agent);
}

Request
PendingRequests::popOldest(AgentId agent)
{
    BUSARB_ASSERT(hasAgent(agent), "agent ", agent,
                  " has no pending request");
    const auto a = static_cast<std::size_t>(agent);
    const Request req = slot_[a].req;
    auto &dq = overflow_[a];
    if (dq.empty()) {
        setMaskBit(mask_, agent, false);
        setMaskBit(priority_, agent, false);
    } else {
        slot_[a] = std::move(dq.front());
        dq.pop_front();
        setMaskBit(priority_, agent, slot_[a].req.priority);
        setMaskBit(several_, agent, !dq.empty());
    }
    BUSARB_ASSERT(total_ > 0, "pending count underflow");
    --total_;
    return req;
}

} // namespace busarb
