#include "baseline/aap_batch.hh"

#include "sim/logging.hh"

namespace busarb {

BatchAapProtocol::BatchAapProtocol(bool enable_priority)
    : enablePriority_(enable_priority)
{
}

void
BatchAapProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    pending_.reset(num_agents);
    batchCount_.assign(static_cast<std::size_t>(num_agents) + 1, 0);
    batchSize_ = 0;
    pass_.reset(num_agents, arbitrationLineCount(), idBits_);
    passOpen_ = false;
    batchesFormed_ = 0;
    priorityPending_ = 0;
}

void
BatchAapProtocol::joinBatch(const Request &req)
{
    ++batchCount_[static_cast<std::size_t>(req.agent)];
    ++batchSize_;
}

void
BatchAapProtocol::formNewBatch(Tick now)
{
    BUSARB_ASSERT(batchSize_ == 0, "forming a batch while one is active");
    pending_.forEach([&](PendingEntry &e) {
        // Priority requests ignore the batching protocol entirely.
        if (!e.req.priority)
            joinBatch(e.req);
    });
    if (batchSize_ > 0) {
        ++batchesFormed_;
        batchFormedAt_ = now;
    }
}

void
BatchAapProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !enablePriority_)
        BUSARB_FATAL("priority request posted but priority is disabled");
    pending_.add(req);
    if (req.priority) {
        // Priority requests compete in every arbitration (Section 2.4).
        ++priorityPending_;
        return;
    }
    if (batchSize_ == 0) {
        // Request line reads 0: the request asserts it and forms a new
        // batch.
        formNewBatch(req.issued);
    } else if (req.issued == batchFormedAt_) {
        // The batch formed at this very instant; the line assertion has
        // not propagated yet, so this request joins it too.
        joinBatch(req);
    }
    // Otherwise: a batch is in progress; the request waits for its end.
}

bool
BatchAapProtocol::wantsPass() const
{
    // Batch members assert the request line (and the batch is non-empty
    // whenever a non-priority request is pending, since a new batch
    // forms the moment the old one drains); priority requests assert it
    // unconditionally.
    return batchSize_ > 0 || priorityPending_ > 0;
}

void
BatchAapProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    pass_.clear();
    // An agent drives one word: its oldest priority request if it has
    // one (priority line asserted, most significant bit), otherwise its
    // oldest in-batch request.
    pending_.forEachAgentWithRequests([&](AgentId a) {
        if (enablePriority_ && pending_.oldestPriority(a) != nullptr) {
            pass_.addCompetitor(a);
            pass_.drive(idBits_, a);
        } else if (batchCount_[static_cast<std::size_t>(a)] > 0) {
            pass_.addCompetitor(a);
        }
    });
}

PassResult
BatchAapProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;
    if (pass_.empty()) {
        BUSARB_ASSERT(batchSize_ == 0,
                      "batch members vanished without service");
        return PassResult::makeIdle();
    }
    const AgentId winner = pass_.winner();
    const PendingEntry *entry = nullptr;
    if (enablePriority_ && pass_.drives(idBits_, winner)) {
        entry = pending_.oldestPriority(winner);
    } else {
        // The oldest in-batch request is the oldest non-priority one.
        pending_.forEachOfAgent(winner, [&](PendingEntry &e) {
            if (entry == nullptr && !e.req.priority)
                entry = &e;
        });
    }
    BUSARB_ASSERT(entry != nullptr, "winning request vanished");
    return PassResult::makeWinner(entry->req);
}

void
BatchAapProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    if (req.priority) {
        BUSARB_ASSERT(priorityPending_ > 0, "priority count underflow");
        --priorityPending_;
        pending_.popBySeq(req.agent, req.seq);
        return;
    }
    // The agent releases the request line at the start of its tenure.
    std::uint32_t &count = batchCount_[static_cast<std::size_t>(req.agent)];
    BUSARB_ASSERT(count > 0, "served request was not in batch");
    --count;
    --batchSize_;
    pending_.popBySeq(req.agent, req.seq);
    if (batchSize_ == 0) {
        // The request line drops to 0: every waiting request asserts it
        // and the next batch forms.
        formNewBatch(now);
    }
}

int
BatchAapProtocol::settleRoundsForPass() const
{
    return pass_.settle().rounds;
}

std::string
BatchAapProtocol::name() const
{
    return "AAP-1 (Fastbus/NuBus/Multibus II batching)";
}

} // namespace busarb
