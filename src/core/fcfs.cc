#include "core/fcfs.hh"

#include <bit>

#include "sim/logging.hh"

namespace busarb {

FcfsProtocol::FcfsProtocol(const FcfsConfig &config) : config_(config)
{
    if (config_.enablePriority) {
        if (config_.strategy == FcfsStrategy::kIncrementOnLose &&
            config_.priorityCounting == PriorityCounting::kDualIncrLines) {
            BUSARB_FATAL("kDualIncrLines applies to the a-incr strategy "
                         "only (Section 3.2)");
        }
        if (config_.strategy == FcfsStrategy::kIncrLine &&
            config_.priorityCounting ==
                PriorityCounting::kMatchedIncrement) {
            BUSARB_FATAL("kMatchedIncrement applies to the increment-on-"
                         "lose strategy only; use kDualIncrLines or "
                         "kAlwaysIncrement (Section 3.2)");
        }
    }
    BUSARB_ASSERT(config_.counterBits >= 0 && config_.counterBits <= 32,
                  "counter width out of range: ", config_.counterBits);
    BUSARB_ASSERT(config_.maxOutstandingHint >= 1,
                  "maxOutstandingHint must be >= 1");
}

void
FcfsProtocol::reset(int num_agents)
{
    BUSARB_ASSERT(num_agents >= 1, "need at least one agent");
    numAgents_ = num_agents;
    idBits_ = linesForAgents(num_agents);
    if (config_.counterBits > 0) {
        counterBits_ = config_.counterBits;
    } else {
        // ceil(log2(N+1)) bits bound the losses a single-outstanding
        // request can suffer; r outstanding requests per agent need
        // ceil(log2 r) more (Section 3.2).
        counterBits_ = idBits_;
        int extra = 0;
        while ((1 << extra) < config_.maxOutstandingHint)
            ++extra;
        counterBits_ += extra;
    }
    windowTicks_ = unitsToTicks(config_.incrWindow);
    pending_.reset(num_agents);
    counters_.reset(num_agents, counterBits_, config_.overflow);
    pass_.reset(num_agents, numLines(), idBits_);
    patched_.assign(pass_.numWords(), 0);
    presentedSeq_.assign(static_cast<std::size_t>(num_agents) + 1, 0);
    passOpen_ = false;
    streams_ = {};
    pulsedInPass_ = false;
    lastSeq_ = 0;
    passSeq_ = 0;
    overflowEvents_ = 0;
    tiedArrivals_ = 0;
    arrivalsSinceLastArb_ = 0;
}

int
FcfsProtocol::numLines() const
{
    return idBits_ + counterBits_ + (config_.enablePriority ? 1 : 0);
}

bool
FcfsProtocol::dualStreams() const
{
    return config_.enablePriority &&
           config_.priorityCounting == PriorityCounting::kDualIncrLines;
}

int
FcfsProtocol::streamIndex(bool priority) const
{
    return dualStreams() && priority ? 1 : 0;
}

void
FcfsProtocol::countEvent(PendingEntry &e)
{
    ++e.counter;
    if (e.counter == counters_.max() + 1)
        ++overflowEvents_;
}

void
FcfsProtocol::countPulse(int stream)
{
    // Every waiting request of the stream counts the pulse: the oldest
    // ones as one add over the agent mask, the ones behind them singly.
    for (std::size_t w = 0; w < counters_.numWords(); ++w) {
        std::uint64_t waiting = pending_.requestMaskWord(w);
        if (dualStreams())
            waiting &= classWord(w, stream == 1);
        overflowEvents_ += static_cast<std::uint64_t>(
            counters_.increment(w, waiting));
    }
    pending_.forEachAgentWithSeveral([&](AgentId a) {
        pending_.forEachBehindOldest(a, [&](PendingEntry &e) {
            if (streamIndex(e.req.priority) == stream)
                countEvent(e);
        });
    });
}

void
FcfsProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !config_.enablePriority)
        BUSARB_FATAL("priority request posted but enablePriority is off");
    BUSARB_ASSERT(req.seq > lastSeq_, "request seq ", req.seq,
                  " does not follow ", lastSeq_);
    lastSeq_ = req.seq;

    if (config_.strategy == FcfsStrategy::kIncrLine) {
        const int index = streamIndex(req.priority);
        PulseStream &stream = streams_[static_cast<std::size_t>(index)];
        const bool line_idle =
            !stream.anyPulse || (req.issued - stream.lastPulse >=
                                 windowTicks_);
        if (line_idle) {
            // The agent senses 0 on a-incr and pulses it; every waiting
            // request of this stream counts the pulse.
            stream.lastPulse = req.issued;
            stream.anyPulse = true;
            pulsedInPass_ = pulsedInPass_ || passOpen_;
            countPulse(index);
        } else {
            // a-incr is already asserted: this request shares the pulse
            // (and therefore the counter value) of the previous arrival.
            ++tiedArrivals_;
        }
    } else {
        if (arrivalsSinceLastArb_ > 0)
            ++tiedArrivals_;
        ++arrivalsSinceLastArb_;
    }

    // The new request's counter starts at 0, on the planes when it is
    // its agent's oldest and in its entry otherwise.
    if (!pending_.hasAgent(req.agent))
        counters_.set(req.agent, 0);
    pending_.add(req);
}

bool
FcfsProtocol::wantsPass() const
{
    return !pending_.empty();
}

std::uint64_t
FcfsProtocol::wordFor(const Request &req, std::uint64_t counter) const
{
    std::uint64_t word =
        (counter << idBits_) | static_cast<std::uint64_t>(req.agent);
    if (config_.enablePriority && req.priority)
        word |= 1ULL << (counterBits_ + idBits_);
    return word;
}

const PendingEntry &
FcfsProtocol::competingEntry(AgentId agent)
{
    const PendingEntry *best = &pending_.oldest(agent);
    std::uint64_t best_word = wordFor(best->req, counters_.value(agent));
    pending_.forEachBehindOldest(agent, [&](const PendingEntry &e) {
        const std::uint64_t w = wordFor(e.req, counters_.clip(e.counter));
        if (w > best_word) {
            best = &e;
            best_word = w;
        }
    });
    return *best;
}

void
FcfsProtocol::presentEntry(AgentId agent, const PendingEntry &e)
{
    const auto bit = static_cast<std::size_t>(agent);
    const std::size_t w = bit >> 6;
    const std::uint64_t m = 1ULL << (bit & 63);
    const std::uint64_t word = wordFor(e.req, counters_.clip(e.counter));
    for (int line = idBits_; line < numLines(); ++line) {
        std::uint64_t &l = pass_.lineWord(line, w);
        l = ((word >> line) & 1ULL) != 0 ? (l | m) : (l & ~m);
    }
}

void
FcfsProtocol::driveCounters()
{
    for (int b = 0; b < counterBits_; ++b) {
        for (std::size_t w = 0; w < pass_.numWords(); ++w)
            pass_.lineWord(idBits_ + b, w) = counters_.plane(b, w);
    }
    for (std::size_t w = 0; w < patched_.size(); ++w) {
        for (std::uint64_t bits = patched_[w]; bits != 0; bits &= bits - 1) {
            const auto a =
                static_cast<AgentId>(w * 64 + std::countr_zero(bits));
            const PendingEntry *e = pending_.findBySeq(
                a, presentedSeq_[static_cast<std::size_t>(a)]);
            BUSARB_ASSERT(e != nullptr, "frozen request vanished");
            presentEntry(a, *e);
        }
    }
}

void
FcfsProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    pulsedInPass_ = false;
    passSeq_ = lastSeq_;
    // Every agent with a request competes with its oldest one, whose
    // counter the planes hold and whose class the priority mask does;
    // every dynamic line is written whole.
    for (std::size_t w = 0; w < pass_.numWords(); ++w) {
        pass_.competitorWord(w) = pending_.requestMaskWord(w);
        if (config_.enablePriority) {
            pass_.lineWord(counterBits_ + idBits_, w) =
                pending_.priorityMaskWord(w);
        }
        patched_[w] = 0;
    }
    // An agent with several requests presents its maximum word, which
    // under wrap or priority can be a request behind its oldest.
    pending_.forEachAgentWithSeveral([&](AgentId a) {
        const PendingEntry &e = competingEntry(a);
        if (e.req.seq == pending_.oldest(a).req.seq)
            return;
        const auto bit = static_cast<std::size_t>(a);
        patched_[bit >> 6] |= 1ULL << (bit & 63);
        presentedSeq_[bit] = e.req.seq;
    });
    driveCounters();
}

PassResult
FcfsProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    // The winner comes from the words at resolution time: for the
    // a-incr strategy, pulses that occurred during the pass have already
    // advanced the waiting-time counters the agents are applying.
    if (pulsedInPass_)
        driveCounters();
    const AgentId agent = pass_.winner();
    if (agent == kNoAgent) {
        BUSARB_ASSERT(pending_.empty(),
                      "FCFS pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }
    const auto bit = static_cast<std::size_t>(agent);
    const bool patched = ((patched_[bit >> 6] >> (bit & 63)) & 1ULL) != 0;
    const PendingEntry *winner = &pending_.oldest(agent);
    if (patched) {
        winner = pending_.findBySeq(agent, presentedSeq_[bit]);
        BUSARB_ASSERT(winner != nullptr, "frozen request vanished");
    }
    const Request won = winner->req;

    if (config_.strategy == FcfsStrategy::kIncrementOnLose) {
        // Every request that observed this arbitration and was not served
        // increments its waiting-time counter (subject to the priority
        // counting rule): the competitors' oldest requests as one add
        // over the competitor mask, the requests behind them singly.
        const bool matched =
            config_.enablePriority &&
            config_.priorityCounting == PriorityCounting::kMatchedIncrement;
        for (std::size_t w = 0; w < pass_.numWords(); ++w) {
            std::uint64_t lost = pass_.competitorWord(w);
            if (!patched && w == (bit >> 6))
                lost &= ~(1ULL << (bit & 63));
            if (matched)
                lost &= classWord(w, won.priority);
            overflowEvents_ +=
                static_cast<std::uint64_t>(counters_.increment(w, lost));
        }
        pending_.forEachAgentWithSeveral([&](AgentId a) {
            pending_.forEachBehindOldest(a, [&](PendingEntry &e) {
                if (e.req.seq <= passSeq_ && e.req.seq != won.seq &&
                    (!matched || e.req.priority == won.priority)) {
                    countEvent(e);
                }
            });
        });
        arrivalsSinceLastArb_ = 0;
    }

    return PassResult::makeWinner(won);
}

void
FcfsProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    const bool oldest = pending_.oldest(req.agent).req.seq == req.seq;
    pending_.popBySeq(req.agent, req.seq);
    // The request behind a served oldest moves up, and its counter onto
    // the planes.
    if (oldest && pending_.hasAgent(req.agent))
        counters_.set(req.agent, pending_.oldest(req.agent).counter);
}

int
FcfsProtocol::settleRoundsForPass() const
{
    // The FCFS identities are wider (counter + static id), so the same
    // contest costs more settle rounds than under RR — the efficiency
    // difference Section 3.2 discusses.
    return pass_.settle().rounds;
}

std::string
FcfsProtocol::name() const
{
    std::string n = "FCFS (";
    n += (config_.strategy == FcfsStrategy::kIncrementOnLose)
             ? "impl 1: increment-on-lose"
             : "impl 2: a-incr line";
    n += ")";
    return n;
}

} // namespace busarb
