/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events are callbacks scheduled at an absolute tick with a small integer
 * priority. Ordering is total and deterministic: (tick, priority, insertion
 * sequence). Determinism matters here because several of the paper's
 * experiments (Table 4.5's "just miss" scenario) depend on exact tie
 * behaviour between simultaneous events.
 *
 * Two storage policies implement the same ordering contract behind one
 * class (see docs/KERNEL.md):
 *
 *  - kCalendar (default): a calendar queue (Brown 1988) tuned for the
 *    integer-tick timestamp distribution. Event nodes live in an arena
 *    (freed slots are recycled, so steady state allocates nothing),
 *    buckets hold short (tick, priority, id)-sorted lists, and the
 *    bucket width re-tunes itself from the live event span as the
 *    queue grows and shrinks. Deschedules unlink directly — no
 *    tombstones.
 *  - kHeap: the classic binary heap with a tombstone set for
 *    cancellations, kept as the reference implementation. Differential
 *    tests pin both policies to bit-identical execution order, and the
 *    benchmarks report the speedup of one over the other.
 *
 * Both policies store callbacks in a small-buffer-optimized, move-only
 * EventCallback, so popping an event moves the callable out instead of
 * copying a std::function off the heap top.
 *
 * Beside its events the queue has one same-tick slot (armSameTick()): a
 * plain function armed at the current tick, which runs exactly where an
 * event scheduled now at the same priority would run, without a trip
 * through the storage.
 */

#ifndef BUSARB_SIM_EVENT_QUEUE_HH
#define BUSARB_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_callback.hh"
#include "sim/logging.hh"
#include "sim/profiling.hh"
#include "sim/types.hh"

namespace busarb {

/**
 * Priorities for simultaneous events. Lower runs first.
 *
 * The ordering encodes the causal structure of a bus cycle boundary: a
 * transaction completes, then an arbitration that was due resolves, and
 * only then do newly generated requests become visible, so a request
 * issued exactly at a cycle boundary cannot join an arbitration that
 * logically started earlier.
 */
enum EventPriority : int {
    kPriTransactionEnd = 0,
    kPriArbitration = 10,
    kPriRequestArrival = 20,
    // Pass starts run after every same-tick arrival so that requests
    // issued at the same instant all enter the arbitration that begins
    // at that instant. The bus arms them in the same-tick slot.
    kPriBeginPass = 30,
    kPriDefault = 50,
    kPriStats = 90,
};

/** Storage policy behind EventQueue; both obey the same ordering. */
enum class EventQueuePolicy {
    kCalendar, ///< calendar queue + arena (the fast default)
    kHeap,     ///< binary heap + tombstones (reference implementation)
};

/** Buckets of the event-queue depth profile histogram (log2-spaced). */
constexpr std::size_t kEventDepthBuckets = 24;

/**
 * Initial calendar-queue geometry. Both values are log2: the calendar
 * re-tunes its bucket width from the live event span as it resizes, so
 * these only seed the first configuration.
 */
struct CalendarTuning
{
    /** log2 of the initial bucket count. */
    std::uint32_t bucketCountLog2 = 6;

    /** log2 of the initial bucket width, in ticks. */
    std::uint32_t bucketWidthLog2 = 20;

    /**
     * Geometry for an expected steady-state live-event depth: roughly
     * two buckets per live event, so bucket lists stay a couple of
     * entries long.
     *
     * @param depth Expected number of live events (e.g. agents + a few
     *        bus events for the closed workloads).
     * @return Tuning with the bucket count sized to the depth.
     */
    static CalendarTuning forExpectedDepth(std::size_t depth);
};

/**
 * A min-ordered queue of timed callbacks.
 *
 * Not thread-safe; the whole simulator is single-threaded by design.
 */
class EventQueue
{
  public:
    /** Opaque handle for descheduling. 0 is never a valid id. */
    using EventId = std::uint64_t;
    using Callback = EventCallback;
    /** What the same-tick slot runs: a plain function and its context. */
    using SameTickFn = void (*)(void *context);

    EventQueue() : EventQueue(EventQueuePolicy::kCalendar) {}

    /**
     * @param policy Storage policy (calendar or reference heap).
     * @param tuning Initial calendar geometry; ignored by kHeap.
     */
    explicit EventQueue(EventQueuePolicy policy,
                        CalendarTuning tuning = CalendarTuning{});

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb Callback to invoke.
     * @param priority Tie-break among same-tick events (lower first).
     * @return Handle usable with deschedule().
     */
    EventId schedule(Tick when, Callback cb, int priority = kPriDefault);

    /**
     * Schedule a callable, constructing it directly in the queue's own
     * storage (the arena node for the calendar policy) instead of
     * moving it through a Callback temporary. Semantics are identical
     * to schedule(Tick, Callback, int); this overload only removes two
     * relocations per event from the hot path.
     */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventId
    schedule(Tick when, F &&fn, int priority = kPriDefault)
    {
        if (policy_ == EventQueuePolicy::kCalendar) {
            EventId id = 0;
            calScheduleSlot(when, priority, id)
                ->emplace(std::forward<F>(fn));
            return id;
        }
        return schedule(when, Callback(std::forward<F>(fn)), priority);
    }

    /**
     * Schedule a callback at a delay relative to now().
     *
     * Delays reaching past kMaxTick saturate at kMaxTick instead of
     * overflowing: scheduleIn(kMaxTick, ...) is a valid "never, unless
     * the horizon is infinite" sentinel event.
     *
     * @param delay Non-negative tick delay.
     * @param cb Callback to invoke.
     * @param priority Tie-break among same-tick events (lower first).
     * @return Handle usable with deschedule().
     */
    EventId scheduleIn(Tick delay, Callback cb, int priority = kPriDefault);

    /** In-place-constructing variant of scheduleIn; see schedule(). */
    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, Callback> &&
                  !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventId
    scheduleIn(Tick delay, F &&fn, int priority = kPriDefault)
    {
        return schedule(saturatedTick(delay), std::forward<F>(fn),
                        priority);
    }

    /**
     * Arm the same-tick slot: fn(context) runs exactly where an event
     * scheduled now at `priority` would run. The slot takes the next id
     * of the event sequence, so it ties with same-(tick, priority)
     * events as such an event would. It cannot be descheduled, and it
     * is counted neither in numExecuted() nor in the depth profile.
     * The slot is free again once fn is called, so fn may re-arm it.
     *
     * @param fn Function to run; must not be null.
     * @param context Its argument.
     * @param priority Tie-break among same-tick entries (lower first).
     */
    void
    armSameTick(SameTickFn fn, void *context, int priority)
    {
        BUSARB_ASSERT(fn != nullptr, "null same-tick function");
        BUSARB_ASSERT(sameTick_.fn == nullptr,
                      "same-tick slot armed twice");
        sameTick_ = SameTick{fn, context, priority, nextId_++};
    }

    /**
     * Cancel a previously scheduled event.
     *
     * @param id Handle returned by schedule().
     * @retval true The event was pending and is now cancelled.
     * @retval false The event already ran, was cancelled, or never existed.
     */
    bool deschedule(EventId id);

    /** @return true if no live events remain and the slot is not armed. */
    bool
    empty() const
    {
        return liveCount_ == 0 && sameTick_.fn == nullptr;
    }

    /** @return Current simulated time in ticks. */
    Tick now() const { return now_; }

    /**
     * @return Tick of the earliest live event, or now() while the
     *         same-tick slot is armed; kMaxTick if empty.
     */
    Tick
    nextTick() const
    {
        if (sameTick_.fn != nullptr)
            return now_;
        if (policy_ == EventQueuePolicy::kCalendar) {
            const Node *min = minValid_ ? cachedMin_ : calFindMin();
            return min == nullptr ? kMaxTick : min->when;
        }
        return heapNextTick();
    }

    /**
     * Execute the single earliest live event, or the same-tick slot
     * where it sorts first.
     *
     * @retval true An event or the slot was executed.
     * @retval false The queue was empty.
     */
    bool
    runOne()
    {
        if (policy_ != EventQueuePolicy::kCalendar)
            return heapRunOne();
        Node *min = minValid_ ? cachedMin_ : calFindMin();
        if (sameTick_.fn != nullptr &&
            (min == nullptr ||
             sameTickFirst(min->when, min->priority, min->id))) {
            runSameTick();
            return true;
        }
        if (min == nullptr)
            return false;
        calRunMin(min);
        return true;
    }

    /**
     * Run events until the queue drains or the next event is beyond
     * `until`.
     *
     * Events scheduled exactly at `until` are executed, and so is the
     * same-tick slot. Time is left at the tick of the last executed
     * event (or unchanged if none ran).
     *
     * @param until Inclusive horizon in ticks.
     * @return Number of events executed by this call, the slot's runs
     *         not counted (as in numExecuted()).
     */
    std::size_t run(Tick until = kMaxTick);

    /**
     * @return Total events executed over the queue's lifetime; runs of
     *         the same-tick slot are not events and are not counted.
     */
    std::uint64_t numExecuted() const { return numExecuted_; }

    /**
     * @return Number of live (scheduled, not cancelled) events; an
     *         armed same-tick slot is not counted.
     */
    std::size_t numPending() const { return liveCount_; }

    /** @return The storage policy this queue was built with. */
    EventQueuePolicy policy() const { return policy_; }

    /**
     * Cancelled-but-not-yet-removed entries. Always 0 for the calendar
     * policy (deschedule unlinks directly); for the heap policy the
     * tombstone set is compacted whenever it exceeds half the live
     * count, so this stays bounded by liveCount / 2 + 1.
     *
     * @return Current tombstone count.
     */
    std::size_t numTombstones() const;

    /**
     * Allocated event-slot capacity: arena node slots (calendar) or
     * heap vector capacity (heap). Used by tests to pin that a
     * schedule/deschedule churn loop cannot grow memory without bound.
     *
     * @return Number of event slots currently allocated.
     */
    std::size_t nodeCapacity() const;

    /** Buckets of the profile depth histogram (log2-spaced). */
    static constexpr std::size_t kDepthBuckets = kEventDepthBuckets;

    /**
     * Largest live-event depth ever reached. Maintained only when the
     * build is profiled (BUSARB_PROFILING, the default); 0 otherwise.
     * Deterministic: depends only on the scheduled event sequence.
     */
    std::size_t
    profileMaxDepth() const
    {
#if BUSARB_PROFILING_ENABLED
        return maxDepth_;
#else
        return 0;
#endif
    }

    /**
     * Per-schedule depth histogram: bucket b counts schedule() calls
     * made while the live depth (after insertion) was in
     * [2^b, 2^(b+1)); depths beyond the last bucket clamp into it.
     * All zeros when the build is not profiled.
     *
     * @return Reference to the bucket array.
     */
    const std::array<std::uint64_t, kDepthBuckets> &
    profileDepthHistogram() const
    {
        return depthLog2_;
    }

  private:
    /** One live calendar event; recycled through the arena. */
    struct Node
    {
        Tick when;
        int priority;
        EventId id; // doubles as insertion sequence
        Node *next;
        Callback cb;
    };
    // The callback's inline buffer is sized so a node is exactly one
    // cache line; a pop touches one line plus the bucket head.
    static_assert(sizeof(Node) == 64, "event node must fit a cache line");

    /**
     * Slab allocator for calendar nodes. Freed slots are threaded onto
     * a free list and recycled, so a steady-state simulation performs
     * no per-event allocation and churn cannot grow memory beyond the
     * high-water mark of live events. Taking and returning a recycled
     * slot is inline; only carving a new slot goes out of line.
     */
    class NodeArena
    {
      public:
        Node *
        allocate()
        {
            if (freeHead_ == nullptr)
                return carve();
            Slot *slot = freeHead_;
            freeHead_ = slot->nextFree;
            return reinterpret_cast<Node *>(slot->storage);
        }

        void
        release(Node *node)
        {
            Slot *slot = reinterpret_cast<Slot *>(node);
            slot->nextFree = freeHead_;
            freeHead_ = slot;
        }

        /** @return Total node slots allocated across all slabs. */
        std::size_t capacity() const { return capacity_; }

      private:
        union Slot
        {
            Slot *nextFree;
            alignas(Node) unsigned char storage[sizeof(Node)];
        };

        /** Take a never-used slot, adding a slab when the last is full. */
        Node *carve();

        std::vector<std::unique_ptr<Slot[]>> slabs_;
        Slot *freeHead_ = nullptr;
        std::size_t slabFill_ = 0; // used slots in the newest slab
        std::size_t slabSize_ = 0; // slots in the newest slab
        std::size_t capacity_ = 0;
    };

    /** One heap entry (reference policy). */
    struct HeapEntry
    {
        Tick when;
        int priority;
        EventId id;
        Callback cb;
    };

    /** The armed same-tick slot; fn == nullptr when it is free. */
    struct SameTick
    {
        SameTickFn fn = nullptr;
        void *context = nullptr;
        int priority = 0;
        EventId id = 0;
    };

    /** Strict (tick, priority, id) order. */
    static bool
    earlier(Tick aw, int ap, EventId ai, Tick bw, int bp, EventId bi)
    {
        if (aw != bw)
            return aw < bw;
        if (ap != bp)
            return ap < bp;
        return ai < bi;
    }

    /**
     * Does the armed slot sort before the event (when, priority, id)?
     * The slot sits at now(): it cannot outlive its tick, because it
     * sorts before every event of a later one.
     */
    bool
    sameTickFirst(Tick when, int priority, EventId id) const
    {
        return earlier(now_, sameTick_.priority, sameTick_.id, when,
                       priority, id);
    }

    /** Free the slot, then run what it held (which may re-arm it). */
    void
    runSameTick()
    {
        const SameTick armed = sameTick_;
        sameTick_.fn = nullptr;
        armed.fn(armed.context);
    }

    /** Clamp now() + delay to kMaxTick (see scheduleIn). */
    Tick
    saturatedTick(Tick delay) const
    {
        BUSARB_ASSERT(delay >= 0, "negative delay: ", delay);
        // Saturate instead of wrapping: now + delay past kMaxTick is
        // signed overflow (UB) before it is ever comparable, so clamp
        // first.
        return delay > kMaxTick - now_ ? kMaxTick : now_ + delay;
    }

    // --- calendar policy ---
    /** Allocate, link, and account a node; cb is filled by the caller. */
    Callback *
    calScheduleSlot(Tick when, int priority, EventId &id)
    {
        BUSARB_ASSERT(when >= now_, "scheduling into the past: when=",
                      when, " now=", now_);
        id = nextId_++;
        Node *node = new (arena_.allocate())
            Node{when, priority, id, nullptr, Callback{}};
        calInsert(node);
        ++liveCount_;
        calCountOp();
#if BUSARB_PROFILING_ENABLED
        recordDepth(liveCount_);
#endif
        return &node->cb;
    }

    void
    calInsert(Node *node)
    {
        const std::size_t bucket = calBucketOf(node->when);
        bucketBits_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
        // Event ids increase monotonically, so a new event sorts after
        // every same-(tick, priority) one already in its bucket; checking
        // the tail first makes the common append — including dense
        // many-events-per-tick floods, where chains cannot be short —
        // O(1) instead of a whole-chain walk.
        Node *tail = tails_[bucket];
        if (tail != nullptr &&
            earlier(tail->when, tail->priority, tail->id, node->when,
                    node->priority, node->id)) {
            node->next = nullptr;
            tail->next = node;
            tails_[bucket] = node;
        } else {
            Node **link = &buckets_[bucket];
            while (*link != nullptr &&
                   earlier((*link)->when, (*link)->priority, (*link)->id,
                           node->when, node->priority, node->id)) {
                link = &(*link)->next;
                ++insertScanSteps_;
            }
            node->next = *link;
            *link = node;
            if (node->next == nullptr)
                tails_[bucket] = node;
        }
        if (minValid_ &&
            earlier(node->when, node->priority, node->id, cachedMin_->when,
                    cachedMin_->priority, cachedMin_->id)) {
            cachedMin_ = node;
        }
    }

    /**
     * Count one schedule or deschedule toward the geometry window; the
     * out-of-line check runs once per window, not once per operation.
     */
    void
    calCountOp()
    {
        if (++opsSinceRebuild_ >= nextGeometryCheck_)
            calCheckGeometry();
    }

    /** Pop `min` (the global minimum) and run its callback in place. */
    void
    calRunMin(Node *min)
    {
        // The global minimum is always its bucket's head: anything in
        // the same bucket sorting ahead of it would itself be earlier.
        const std::size_t bucket = calBucketOf(min->when);
        BUSARB_ASSERT(buckets_[bucket] == min,
                      "calendar minimum is not its bucket head");
        Node *succ = min->next;
        buckets_[bucket] = succ;
        if (succ == nullptr) {
            tails_[bucket] = nullptr;
            bucketBits_[bucket >> 6] &=
                ~(std::uint64_t{1} << (bucket & 63));
        }
        if (succ != nullptr &&
            (static_cast<std::uint64_t>(succ->when) >> widthLog2_) ==
                (static_cast<std::uint64_t>(min->when) >> widthLog2_)) {
            // A successor in the same year window is exactly what the
            // lap scan from now's bucket would return next.
            cachedMin_ = succ;
            minValid_ = true;
        } else {
            cachedMin_ = nullptr;
            minValid_ = false;
        }
        BUSARB_ASSERT(min->when >= now_, "event queue went backwards");
        now_ = min->when;
        BUSARB_ASSERT(liveCount_ > 0, "live count underflow");
        --liveCount_;
        ++numExecuted_;
        // The node is already unlinked, so the callback can run in
        // place: its slot is not released to the arena until after the
        // call, so events it schedules can never alias this node. No
        // geometry check here: pops never walk chains (the min is its
        // bucket's head), so a mistuned width only costs on inserts,
        // and the insert path carries the re-tune triggers.
        min->cb();
        min->~Node();
        arena_.release(min);
    }

    Node *calFindMin() const;
    void calRemove(Node *node, std::size_t bucket);
    void calCheckGeometry();
    void calRebuild(std::uint32_t count_log2, std::uint32_t width_log2);
    std::size_t
    calBucketOf(Tick when) const
    {
        return (static_cast<std::uint64_t>(when) >> widthLog2_) &
               bucketMask_;
    }

    // --- heap policy ---
    void heapSift() const;
    void heapCompactTombstones();
    Tick heapNextTick() const;
    bool heapRunOne();

    EventQueuePolicy policy_;

    // Calendar state. Buckets are heads of (tick, priority, id)-sorted
    // singly-linked lists; the min cache avoids re-scanning between a
    // nextTick() and the runOne() that follows it.
    mutable std::vector<Node *> buckets_;
    // Last node of each bucket list: ids increase monotonically, so the
    // common insert is an O(1) tail append (see calInsert).
    std::vector<Node *> tails_;
    // One bit per bucket (1 = non-empty): the year-lap scan and the
    // sparse-tail fallback jump between occupied buckets with bit
    // scans instead of probing empty heads.
    std::vector<std::uint64_t> bucketBits_;
    std::uint32_t widthLog2_ = 0;
    // The tuned-for geometry is the shrink floor: transient dips below
    // the steady-state depth must not trigger rebuild ping-pong.
    std::uint32_t minCountLog2_ = 0;
    std::size_t opsSinceRebuild_ = 0;
    // opsSinceRebuild_ value at which calCheckGeometry() runs next: the
    // bucket count after a rebuild (the hysteresis window), then one
    // more bucket count after each check that kept the geometry.
    std::size_t nextGeometryCheck_ = 0;
    // Link-walk steps spent in calInsert since the last rebuild; a high
    // steps/ops ratio means the bucket width no longer matches the tick
    // distribution (chains grew long) and triggers a width re-tune.
    std::size_t insertScanSteps_ = 0;
    std::size_t bucketMask_ = 0;
    mutable Node *cachedMin_ = nullptr;
    mutable bool minValid_ = false;
    NodeArena arena_;
    std::vector<Node *> rebuildScratch_;

    // Heap state (reference policy). mutable: nextTick() lazily pops
    // cancelled entries but is logically const.
    mutable std::vector<HeapEntry> heap_;
    mutable std::unordered_set<EventId> cancelled_;

    Tick now_ = 0;
    EventId nextId_ = 1;
    std::size_t liveCount_ = 0;
    std::uint64_t numExecuted_ = 0;
    SameTick sameTick_;

    // Profile probes: the array stays (zeroed) in unprofiled builds so
    // the accessor keeps one signature, but is only ever written under
    // BUSARB_PROFILING_ENABLED.
    std::array<std::uint64_t, kDepthBuckets> depthLog2_{};
#if BUSARB_PROFILING_ENABLED
    std::size_t maxDepth_ = 0;

    /** Record one schedule() at live depth `depth` (>= 1). */
    void
    recordDepth(std::size_t depth)
    {
        if (depth > maxDepth_)
            maxDepth_ = depth;
        // Bucket floor(log2(depth)), clamped to the last bucket.
        const auto lg =
            static_cast<std::size_t>(std::bit_width(depth)) - 1;
        ++depthLog2_[lg < kDepthBuckets ? lg : kDepthBuckets - 1];
    }
#endif
};

} // namespace busarb

#endif // BUSARB_SIM_EVENT_QUEUE_HH
