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
    counterMax_ = (counterBits_ >= 63) ? ~0ULL >> 1
                                       : ((1ULL << counterBits_) - 1ULL);
    windowTicks_ = unitsToTicks(config_.incrWindow);
    pending_.reset(num_agents);
    pass_.reset(num_agents, numLines(), idBits_);
    pass_.defineField(idBits_, counterBits_);
    presentedSeq_.assign(static_cast<std::size_t>(num_agents) + 1, 0);
    passOpen_ = false;
    streams_ = {};
    overflowEvents_ = 0;
    tiedArrivals_ = 0;
    arrivalsSinceLastArb_ = 0;
}

int
FcfsProtocol::numLines() const
{
    return idBits_ + counterBits_ + (config_.enablePriority ? 1 : 0);
}

int
FcfsProtocol::streamIndex(bool priority) const
{
    if (config_.enablePriority &&
        config_.priorityCounting == PriorityCounting::kDualIncrLines) {
        return priority ? 1 : 0;
    }
    return 0;
}

void
FcfsProtocol::requestPosted(const Request &req)
{
    BUSARB_ASSERT(req.agent >= 1 && req.agent <= numAgents_,
                  "agent id out of range: ", req.agent);
    if (req.priority && !config_.enablePriority)
        BUSARB_FATAL("priority request posted but enablePriority is off");

    PendingEntry &entry = pending_.add(req);
    if (config_.strategy == FcfsStrategy::kIncrLine) {
        PulseStream &stream = streams_[static_cast<std::size_t>(
            streamIndex(req.priority))];
        const bool line_idle =
            !stream.anyPulse || (req.issued - stream.lastPulse >=
                                 windowTicks_);
        if (line_idle) {
            // The agent senses 0 on a-incr and pulses it; every waiting
            // request of this stream counts the pulse.
            ++stream.count;
            stream.lastPulse = req.issued;
            stream.anyPulse = true;
            // Detect counters that just crossed the width limit.
            pending_.forEach([&](PendingEntry &e) {
                if (e.req.seq == req.seq)
                    return;
                if (streamIndex(e.req.priority) !=
                    streamIndex(req.priority)) {
                    return;
                }
                if (stream.count - e.epoch == counterMax_ + 1)
                    ++overflowEvents_;
            });
        } else {
            // a-incr is already asserted: this request shares the pulse
            // (and therefore the counter value) of the previous arrival.
            ++tiedArrivals_;
        }
        entry.epoch = stream.count;
    } else {
        if (arrivalsSinceLastArb_ > 0)
            ++tiedArrivals_;
        ++arrivalsSinceLastArb_;
    }
}

bool
FcfsProtocol::wantsPass() const
{
    return !pending_.empty();
}

std::uint64_t
FcfsProtocol::effectiveCounter(const PendingEntry &e) const
{
    std::uint64_t raw;
    if (config_.strategy == FcfsStrategy::kIncrementOnLose) {
        raw = e.counter;
    } else {
        const auto &stream = streams_[static_cast<std::size_t>(
            streamIndex(e.req.priority))];
        raw = stream.count - e.epoch;
    }
    if (raw <= counterMax_)
        return raw;
    return (config_.overflow == OverflowPolicy::kSaturate)
               ? counterMax_
               : (raw & counterMax_);
}

std::uint64_t
FcfsProtocol::wordFor(const PendingEntry &e) const
{
    const auto id = static_cast<std::uint64_t>(e.req.agent);
    std::uint64_t word = (effectiveCounter(e) << idBits_) | id;
    if (config_.enablePriority && e.req.priority)
        word |= 1ULL << (counterBits_ + idBits_);
    return word;
}

PendingEntry &
FcfsProtocol::competingEntry(AgentId agent)
{
    // Closed workloads keep one outstanding request per agent, so the
    // single-entry case is the hot path.
    PendingEntry &front = pending_.oldest(agent);
    if (pending_.numOfAgent(agent) == 1)
        return front;
    PendingEntry *best = &front;
    std::uint64_t best_word = wordFor(front);
    pending_.forEachOfAgent(agent, [&](PendingEntry &e) {
        const std::uint64_t w = wordFor(e);
        if (w > best_word) {
            best = &e;
            best_word = w;
        }
    });
    return *best;
}

void
FcfsProtocol::loadCounters()
{
    const std::size_t words = pass_.numWords();
    for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t bits = pass_.competitorWord(w); bits != 0;
             bits &= bits - 1) {
            const auto a =
                static_cast<AgentId>(w * 64 + std::countr_zero(bits));
            const PendingEntry *e = pending_.findBySeq(
                a, presentedSeq_[static_cast<std::size_t>(a)]);
            BUSARB_ASSERT(e != nullptr, "frozen request vanished");
            pass_.setField(a, static_cast<std::uint32_t>(
                                  effectiveCounter(*e)));
        }
    }
    pass_.fieldToLines();
}

void
FcfsProtocol::beginPass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(!passOpen_, "beginPass with a pass already open");
    passOpen_ = true;
    pass_.clear();
    // Requests present now participate (or at least observe) this
    // arbitration; requests posted later do not. Only the
    // increment-on-lose counters need to know which.
    const bool counts_losses =
        config_.strategy == FcfsStrategy::kIncrementOnLose;
    for (std::size_t w = 0; w < pass_.numWords(); ++w)
        pass_.competitorWord(w) = pending_.requestMaskWord(w);
    pending_.forEachAgentWithRequests([&](AgentId a) {
        if (counts_losses) {
            pending_.forEachOfAgent(
                a, [](PendingEntry &e) { e.inPass = true; });
        }
        const PendingEntry &e = competingEntry(a);
        presentedSeq_[static_cast<std::size_t>(a)] = e.req.seq;
        pass_.setField(a, static_cast<std::uint32_t>(effectiveCounter(e)));
        if (config_.enablePriority && e.req.priority)
            pass_.drive(counterBits_ + idBits_, a);
    });
    pass_.fieldToLines();
    passPulseCounts_ = {streams_[0].count, streams_[1].count};
}

PassResult
FcfsProtocol::completePass(Tick now)
{
    (void)now;
    BUSARB_ASSERT(passOpen_, "completePass without beginPass");
    passOpen_ = false;

    if (pass_.empty()) {
        BUSARB_ASSERT(pending_.empty(),
                      "FCFS pass frozen empty with requests pending");
        return PassResult::makeIdle();
    }

    // The winner comes from the words at resolution time: for the
    // a-incr strategy, pulses that occurred during the pass have already
    // advanced the waiting-time counters the agents are applying.
    if (passPulseCounts_[0] != streams_[0].count ||
        passPulseCounts_[1] != streams_[1].count) {
        loadCounters();
    }
    const AgentId agent = pass_.winner();
    PendingEntry *winner = pending_.findBySeq(
        agent, presentedSeq_[static_cast<std::size_t>(agent)]);
    BUSARB_ASSERT(winner != nullptr, "frozen request vanished");
    const Request won = winner->req;

    if (config_.strategy == FcfsStrategy::kIncrementOnLose) {
        // Every request that observed this arbitration and was not served
        // increments its waiting-time counter (subject to the priority
        // counting rule).
        const bool matched =
            config_.enablePriority &&
            config_.priorityCounting == PriorityCounting::kMatchedIncrement;
        pending_.forEach([&](PendingEntry &e) {
            const bool lost = e.inPass && e.req.seq != won.seq &&
                              (!matched || e.req.priority == won.priority);
            e.inPass = false;
            if (!lost)
                return;
            ++e.counter;
            if (e.counter == counterMax_ + 1)
                ++overflowEvents_;
        });
        arrivalsSinceLastArb_ = 0;
    }

    return PassResult::makeWinner(won);
}

void
FcfsProtocol::tenureStarted(const Request &req, Tick now)
{
    (void)now;
    pending_.popBySeq(req.agent, req.seq);
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
