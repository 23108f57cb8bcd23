#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace busarb {

namespace {

/** Calendar geometry limits. */
constexpr std::uint32_t kMinBucketCountLog2 = 3;  // 8 buckets
constexpr std::uint32_t kMaxBucketCountLog2 = 16; // 65536 buckets
constexpr std::uint32_t kMinBucketWidthLog2 = 0;
/** Mean insert chain walk (steps per operation) that triggers a width
 *  re-tune; a well-tuned calendar stays near one step. */
constexpr std::size_t kRetuneScanFactor = 3;
constexpr std::uint32_t kMaxBucketWidthLog2 = 44;

/** First slab size; later slabs double up to the cap. */
constexpr std::size_t kFirstSlabSlots = 64;
constexpr std::size_t kMaxSlabSlots = 8192;

std::uint32_t
clampU32(std::uint32_t v, std::uint32_t lo, std::uint32_t hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

/** floor(log2(v)) for v >= 1. */
std::uint32_t
floorLog2(std::uint64_t v)
{
    std::uint32_t b = 0;
    while (v > 1) {
        v >>= 1;
        ++b;
    }
    return b;
}

} // namespace

// ------------------------------------------------------- CalendarTuning

CalendarTuning
CalendarTuning::forExpectedDepth(std::size_t depth)
{
    CalendarTuning t;
    if (depth >= 1)
        t.bucketCountLog2 = clampU32(floorLog2(depth) + 1,
                                     kMinBucketCountLog2,
                                     kMaxBucketCountLog2);
    return t;
}

// ------------------------------------------------------------ NodeArena

EventQueue::Node *
EventQueue::NodeArena::carve()
{
    if (slabFill_ == slabSize_) {
        slabSize_ = slabs_.empty()
                        ? kFirstSlabSlots
                        : std::min(slabSize_ * 2, kMaxSlabSlots);
        slabs_.push_back(std::make_unique<Slot[]>(slabSize_));
        slabFill_ = 0;
        capacity_ += slabSize_;
    }
    return reinterpret_cast<Node *>(
        slabs_.back()[slabFill_++].storage);
}

// ------------------------------------------------------------ lifecycle

EventQueue::EventQueue(EventQueuePolicy policy, CalendarTuning tuning)
    : policy_(policy)
{
    if (policy_ == EventQueuePolicy::kCalendar) {
        const std::uint32_t count_log2 =
            clampU32(tuning.bucketCountLog2, kMinBucketCountLog2,
                     kMaxBucketCountLog2);
        widthLog2_ = clampU32(tuning.bucketWidthLog2, kMinBucketWidthLog2,
                              kMaxBucketWidthLog2);
        minCountLog2_ = count_log2;
        buckets_.assign(std::size_t{1} << count_log2, nullptr);
        tails_.assign(buckets_.size(), nullptr);
        bucketBits_.assign((buckets_.size() + 63) / 64, 0);
        bucketMask_ = buckets_.size() - 1;
        nextGeometryCheck_ = buckets_.size();
    }
}

EventQueue::~EventQueue()
{
    for (Node *head : buckets_) {
        while (head != nullptr) {
            Node *next = head->next;
            head->~Node();
            head = next;
        }
    }
    // Heap entries (and their callbacks) are destroyed by the vector.
}

// ------------------------------------------------------------- calendar

EventQueue::Node *
EventQueue::calFindMin() const
{
    if (liveCount_ == 0)
        return nullptr;
    if (minValid_)
        return cachedMin_;

    // One "year" lap starting at now's bucket: the first occupied
    // bucket whose head falls inside its current-year window holds the
    // global minimum (windows ahead of now are disjoint and ascending,
    // and same-tick events share a bucket). The occupancy bitmask
    // jumps straight between non-empty buckets.
    const std::uint64_t unow = static_cast<std::uint64_t>(now_);
    const std::uint64_t chunk = unow >> widthLog2_;
    const std::size_t start = static_cast<std::size_t>(chunk) & bucketMask_;
    const std::uint64_t base_top = (chunk + 1) << widthLog2_;
    const std::size_t nb = buckets_.size();
    const std::size_t nwords = bucketBits_.size();
    // First set bit at bucket index >= from, or nb if none.
    const auto nextOccupied = [&](std::size_t from) -> std::size_t {
        if (from >= nb)
            return nb;
        std::size_t w = from >> 6;
        std::uint64_t bits =
            bucketBits_[w] & (~std::uint64_t{0} << (from & 63));
        while (bits == 0) {
            if (++w == nwords)
                return nb;
            bits = bucketBits_[w];
        }
        return (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    };
    bool wrapped = false;
    std::size_t pos = nextOccupied(start);
    if (pos == nb) {
        wrapped = true;
        pos = nextOccupied(0);
        BUSARB_ASSERT(pos < nb, "live events lost from the calendar");
    }
    while (!(wrapped && pos >= start)) {
        // Cyclic offset from the lap start (size_t wrap-around then
        // mask yields (pos - start) mod nb).
        const std::size_t i = (pos - start) & bucketMask_;
        Node *head = buckets_[pos];
        if (static_cast<std::uint64_t>(head->when) <
            base_top + (static_cast<std::uint64_t>(i) << widthLog2_)) {
            cachedMin_ = head;
            minValid_ = true;
            return head;
        }
        pos = nextOccupied(pos + 1);
        if (pos == nb) {
            if (wrapped)
                break;
            wrapped = true;
            pos = nextOccupied(0);
        }
    }

    // Sparse tail: every live event is more than a year ahead. Each
    // bucket list is sorted, so the global minimum is the least head.
    Node *best = nullptr;
    for (std::size_t w = 0; w < nwords; ++w) {
        for (std::uint64_t bits = bucketBits_[w]; bits != 0;
             bits &= bits - 1) {
            Node *head =
                buckets_[(w << 6) +
                         static_cast<std::size_t>(std::countr_zero(bits))];
            if (best == nullptr ||
                earlier(head->when, head->priority, head->id, best->when,
                        best->priority, best->id)) {
                best = head;
            }
        }
    }
    BUSARB_ASSERT(best != nullptr, "live events lost from the calendar");
    cachedMin_ = best;
    minValid_ = true;
    return best;
}

void
EventQueue::calRemove(Node *node, std::size_t bucket)
{
    Node *prev = nullptr;
    Node **link = &buckets_[bucket];
    while (*link != node) {
        BUSARB_ASSERT(*link != nullptr, "event ", node->id,
                      " missing from its calendar bucket");
        prev = *link;
        link = &(*link)->next;
    }
    *link = node->next;
    if (node == tails_[bucket])
        tails_[bucket] = prev;
    if (buckets_[bucket] == nullptr)
        bucketBits_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
    if (node == cachedMin_)
        minValid_ = false;
}

void
EventQueue::calCheckGeometry()
{
    // Hysteresis: geometry changes only after a full bucket-count worth
    // of operations since the last rebuild, and never below the tuned
    // initial count — a live depth oscillating around a threshold must
    // not ping-pong between rebuilds. A check that keeps the geometry
    // schedules the next one a bucket count later (calCountOp).
    const std::size_t nb = buckets_.size();
    if (liveCount_ > nb * 2 &&
        nb < (std::size_t{1} << kMaxBucketCountLog2)) {
        calRebuild(floorLog2(nb) + 1, widthLog2_);
    } else if (liveCount_ < nb / 8 && floorLog2(nb) > minCountLog2_) {
        calRebuild(floorLog2(nb) - 1, widthLog2_);
    } else if (insertScanSteps_ > opsSinceRebuild_ * kRetuneScanFactor) {
        // The count is right but inserts walk long chains: the bucket
        // width no longer matches the tick distribution (e.g. the
        // initial tuning guessed wrong and the depth never changed
        // enough to trigger a count rebuild). Rebuild at the same count
        // to re-tune the width from the live span.
        calRebuild(floorLog2(nb), widthLog2_);
    } else {
        nextGeometryCheck_ = opsSinceRebuild_ + nb;
    }
}

void
EventQueue::calRebuild(std::uint32_t count_log2, std::uint32_t width_log2)
{
    rebuildScratch_.clear();
    rebuildScratch_.reserve(liveCount_);
    Tick min_when = kMaxTick;
    Tick max_when = 0;
    for (Node *head : buckets_) {
        while (head != nullptr) {
            rebuildScratch_.push_back(head);
            min_when = std::min(min_when, head->when);
            max_when = std::max(max_when, head->when);
            head = head->next;
        }
    }

    // Re-tune the width to the live span: aim for roughly one live
    // event per bucket-width so bucket lists stay short while a year
    // still covers the whole span. A span smaller than the live count
    // (many events per tick) wants the narrowest buckets — one tick per
    // bucket — so the sorted chains stay as short as the tick
    // distribution allows.
    if (rebuildScratch_.size() >= 2 && max_when > min_when) {
        const std::uint64_t gap =
            static_cast<std::uint64_t>(max_when - min_when) /
            rebuildScratch_.size();
        width_log2 = clampU32(gap >= 1 ? floorLog2(gap) + 1 : 0,
                              kMinBucketWidthLog2, kMaxBucketWidthLog2);
    }

    widthLog2_ = width_log2;
    buckets_.assign(std::size_t{1} << count_log2, nullptr);
    tails_.assign(buckets_.size(), nullptr);
    bucketBits_.assign((buckets_.size() + 63) / 64, 0);
    bucketMask_ = buckets_.size() - 1;
    minValid_ = false;
    cachedMin_ = nullptr;
    opsSinceRebuild_ = 0;
    nextGeometryCheck_ = buckets_.size();
    for (Node *node : rebuildScratch_)
        calInsert(node);
    // Reinsertion walks above must not count toward the next window's
    // re-tune decision.
    insertScanSteps_ = 0;
}

// ----------------------------------------------------------------- heap

void
EventQueue::heapSift() const
{
    // Drop cancelled entries sitting at the heap top, erasing their
    // tombstones as they surface.
    const auto later = [](const HeapEntry &a, const HeapEntry &b) {
        return earlier(b.when, b.priority, b.id, a.when, a.priority, a.id);
    };
    while (!heap_.empty() && cancelled_.erase(heap_.front().id) > 0) {
        std::pop_heap(heap_.begin(), heap_.end(), later);
        heap_.pop_back();
    }
}

void
EventQueue::heapCompactTombstones()
{
    const auto later = [](const HeapEntry &a, const HeapEntry &b) {
        return earlier(b.when, b.priority, b.id, a.when, a.priority, a.id);
    };
    std::erase_if(heap_, [this](const HeapEntry &e) {
        return cancelled_.count(e.id) > 0;
    });
    std::make_heap(heap_.begin(), heap_.end(), later);
    cancelled_.clear();
}

// ------------------------------------------------------------------ API

EventQueue::EventId
EventQueue::schedule(Tick when, Callback cb, int priority)
{
    BUSARB_ASSERT(static_cast<bool>(cb), "null event callback");
    if (policy_ == EventQueuePolicy::kCalendar) {
        EventId id = 0;
        *calScheduleSlot(when, priority, id) = std::move(cb);
        return id;
    }
    BUSARB_ASSERT(when >= now_, "scheduling into the past: when=", when,
                  " now=", now_);
    const EventId id = nextId_++;
    const auto later = [](const HeapEntry &a, const HeapEntry &b) {
        return earlier(b.when, b.priority, b.id, a.when, a.priority, a.id);
    };
    heap_.push_back(HeapEntry{when, priority, id, std::move(cb)});
    std::push_heap(heap_.begin(), heap_.end(), later);
    ++liveCount_;
#if BUSARB_PROFILING_ENABLED
    recordDepth(liveCount_);
#endif
    return id;
}

EventQueue::EventId
EventQueue::scheduleIn(Tick delay, Callback cb, int priority)
{
    return schedule(saturatedTick(delay), std::move(cb), priority);
}

bool
EventQueue::deschedule(EventId id)
{
    if (id == 0 || id >= nextId_)
        return false;
    if (policy_ == EventQueuePolicy::kCalendar) {
        // Deschedules are rare (no per-event bookkeeping is worth
        // carrying for them); find the node by scanning the live set.
        for (std::size_t b = 0; b < buckets_.size(); ++b) {
            for (Node *node = buckets_[b]; node != nullptr;
                 node = node->next) {
                if (node->id != id)
                    continue;
                calRemove(node, b);
                node->~Node();
                arena_.release(node);
                BUSARB_ASSERT(liveCount_ > 0, "live count underflow");
                --liveCount_;
                calCountOp();
                return true;
            }
        }
        return false;
    }
    if (cancelled_.count(id) > 0)
        return false;
    const bool live =
        std::any_of(heap_.begin(), heap_.end(),
                    [id](const HeapEntry &e) { return e.id == id; });
    if (!live)
        return false;
    cancelled_.insert(id);
    BUSARB_ASSERT(liveCount_ > 0, "live count underflow");
    --liveCount_;
    // Tombstones for far-future events would otherwise accumulate until
    // they surfaced at the top; compact once they exceed half the live
    // count so cancelled storage stays bounded by the live set.
    if (cancelled_.size() * 2 > liveCount_)
        heapCompactTombstones();
    return true;
}

Tick
EventQueue::heapNextTick() const
{
    heapSift();
    return heap_.empty() ? kMaxTick : heap_.front().when;
}

bool
EventQueue::heapRunOne()
{
    heapSift();
    if (sameTick_.fn != nullptr &&
        (heap_.empty() ||
         sameTickFirst(heap_.front().when, heap_.front().priority,
                       heap_.front().id))) {
        runSameTick();
        return true;
    }
    if (heap_.empty())
        return false;
    const auto later = [](const HeapEntry &a, const HeapEntry &b) {
        return earlier(b.when, b.priority, b.id, a.when, a.priority, a.id);
    };
    std::pop_heap(heap_.begin(), heap_.end(), later);
    HeapEntry entry = std::move(heap_.back());
    heap_.pop_back();
    BUSARB_ASSERT(entry.when >= now_, "event queue went backwards");
    now_ = entry.when;
    BUSARB_ASSERT(liveCount_ > 0, "live count underflow");
    --liveCount_;
    ++numExecuted_;
    entry.cb();
    return true;
}

std::size_t
EventQueue::run(Tick until)
{
    const std::uint64_t before = numExecuted_;
    while (nextTick() <= until && runOne()) {
    }
    return static_cast<std::size_t>(numExecuted_ - before);
}

std::size_t
EventQueue::numTombstones() const
{
    return cancelled_.size();
}

std::size_t
EventQueue::nodeCapacity() const
{
    return policy_ == EventQueuePolicy::kCalendar ? arena_.capacity()
                                                  : heap_.capacity();
}

} // namespace busarb
