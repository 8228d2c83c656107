/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in the order they were
 * scheduled (FIFO), which makes whole-system simulation results fully
 * reproducible for a given seed.
 *
 * Each pending event is one 24-byte slot in a per-queue slab, and its
 * callback is built in place, at schedule time, in a callback chunk
 * that never moves; runOne() invokes it there and destroys it once it
 * returns. The slots are ordered by two tiers (see DESIGN.md
 * "Scheduler internals"):
 *
 *  - a LADDER of 1024 one-tick buckets covering the rolling window
 *    [now, now + 1024). Each bucket is an intrusive FIFO list of
 *    slots, so append order IS schedule order and an event for the
 *    current tick simply joins the tail of the bucket being consumed;
 *  - a SPILL HEAP of 24-byte (when, seq, slot) keys for events at or
 *    beyond the window's end. Whenever now advances, every key the
 *    window has reached moves into its bucket in (when, seq) order,
 *    before any later schedule can target its tick, preserving the
 *    global FIFO contract.
 *
 * Event callbacks are sim::InlineFn (inline capture storage, no
 * per-event heap allocation). A cancellable timeout is an ordinary
 * slot whose index and generation form its TimerId, so
 * cancelTimeout() is O(1) and destroys the callback immediately.
 */

#ifndef GRIFFIN_SIM_EVENT_QUEUE_HH
#define GRIFFIN_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/obs/context.hh"
#include "src/sim/inline_fn.hh"
#include "src/sim/ref_queue.hh"
#include "src/sim/types.hh"

namespace griffin::sim {

/**
 * Callback type executed when an event fires: a move-only callable
 * with inline capture storage. A capture that does not fit (e.g. a
 * lambda capturing another event) is a compile error; box it with
 * sim::boxed() — see inline_fn.hh.
 */
using InlineEvent = InlineFn<void()>;
using EventFn = InlineEvent;

/** Handle of a cancellable timeout; 0 is never a valid id. */
using TimerId = std::uint64_t;

/** The invalid TimerId. */
inline constexpr TimerId invalidTimerId = 0;

/**
 * A time-ordered queue of callbacks.
 *
 * This is the only scheduling primitive in the simulator; components
 * never busy-poll, they schedule a continuation for a future tick.
 */
class EventQueue
{
  public:
    /** Allocates nothing; the first callback chunk comes with the
     * first schedule. */
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue();

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p fn to run @p delay ticks from now.
     * A zero delay runs the callback later in the current tick, after
     * all previously scheduled work for this tick.
     *
     * Every schedule call builds its callable once, in its slot's
     * callback storage, from @p fn as passed (an EventFn argument is
     * moved in once); it is not moved again before it runs.
     */
    template <typename F>
    void
    schedule(Tick delay, F &&fn)
    {
        push(_now + delay, false, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when. Scheduling in the past
     * (@p when < now()) is a modeling bug: it is diagnosed with a
     * warning and clamped to now(), so time never runs backwards and
     * the event still executes (after all previously scheduled work
     * for the current tick).
     */
    template <typename F>
    void
    scheduleAt(Tick when, F &&fn)
    {
        if (when < _now) [[unlikely]]
            when = clampPast(when);
        push(when, false, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn like schedule(), but return a handle that
     * cancelTimeout() accepts. Timeouts exist for recovery timers
     * (migration timeouts, ACK re-issue deadlines) that are armed on
     * the common path and cancelled on the common path: a cancelled
     * timeout neither fires nor extends the simulated end time.
     */
    template <typename F>
    TimerId
    scheduleTimeout(Tick delay, F &&fn)
    {
        const std::uint32_t slot =
            push(_now + delay, true, std::forward<F>(fn));
        return (TimerId(_slots[slot].gen) << 32) | slot;
    }

    /**
     * Cancel a pending timeout in O(1). The callback is destroyed
     * immediately (any resources it captured are released now, not
     * when the deadline would have passed) and the entry no longer
     * counts as a pending event, so a run can drain past it.
     * @retval true the timeout was pending and is now cancelled.
     * @retval false unknown id, already fired, or already cancelled.
     */
    bool cancelTimeout(TimerId id);

    /** Timeouts armed and not yet fired or cancelled. */
    std::size_t pendingTimeouts() const { return _pendingTimerCount; }

    /** True when no events remain (cancelled timeouts excluded). */
    bool empty() const { return _size == 0; }

    /**
     * Time of the earliest pending event; maxTick when empty.
     * Cancelled timeouts never contribute: a timeout's deadline stops
     * being reported the moment cancelTimeout() returns.
     */
    Tick nextTime() const;

    /** Number of pending events (cancelled timeouts excluded). */
    std::size_t size() const { return _size; }

    /**
     * Execute the single earliest event.
     * @retval true an event was executed.
     * @retval false the queue was empty.
     */
    bool runOne();

    /** Run until the queue drains. @return the final simulated time. */
    Tick run();

    /**
     * The telemetry context of everything this queue dispatches (see
     * obs/context.hh). It lives here because runOne() reads its
     * profiler on every dispatch; components reach it through
     * sim::Engine::obs().
     */
    obs::Context &obs() { return _obs; }
    const obs::Context &obs() const { return _obs; }

    /**
     * Run all events with time <= @p limit, then advance the clock to
     * @p limit unconditionally — even when the queue drained early or
     * was empty to begin with (the caller asked to simulate up to
     * @p limit, so that much time has passed; watchdog quiesce checks
     * after a drain observe now() == limit). @return the simulated
     * time after running, i.e. max(limit, now()).
     */
    Tick runUntil(Tick limit);

    /** Total number of events executed since construction. */
    std::uint64_t eventsExecuted() const { return _executed; }

    /** @name Introspection for tests @{ */

    /**
     * Entries physically resident in both tiers, including
     * cancelled-timeout tombstones not yet reclaimed. Bounded-memory
     * tests assert this stays close to size().
     */
    std::size_t residentEntries() const;

    /** Slab slots ever allocated (the free list recycles them). */
    std::size_t slotsAllocated() const { return _slots.size(); }

    /** Callbacks per callback chunk; slot i's lives in chunk i / this. */
    static constexpr std::size_t callbackChunkSize = 256;

    /** Callback chunks allocated (one per callbackChunkSize slots). */
    std::size_t callbackChunks() const { return _fns.size(); }

    /** Events filed in the spill heap since construction. */
    std::uint64_t spilledEvents() const { return _spilled; }

    /** @} */

    /** @name Reference scheduler (differential testing) @{ */

    /**
     * Replace the two tiers with the naive (when, seq) binary heap
     * from ref_queue.hh. Test-only: the reference mode
     * exists so fuzz harnesses can demand byte-identical results from
     * the tiered queue and a trivially-correct one. Must be called on
     * a fresh queue, before anything is scheduled or executed.
     */
    void enableReferenceMode();

    /** True when running on the reference heap. */
    bool referenceMode() const { return _refMode; }

    /** @} */

  private:
    /** Number of per-tick ladder buckets; must be a power of two. */
    static constexpr std::size_t ladderBuckets = 1024;
    static constexpr std::size_t bitmapWords = ladderBuckets / 64;
    /** The null slot index: ends a bucket list or the free list. */
    static constexpr std::uint32_t nil = ~std::uint32_t(0);

    /**
     * One pending event, or a free slot; its callback lives apart, at
     * the same index in the callback chunks. A slot leaves the free
     * list when its event is scheduled and returns once the event has
     * run or, once cancelled, when its tier drops the tombstone. Its
     * generation is bumped when the event is dispatched or its
     * tombstone freed, so a stale TimerId never matches again.
     */
    struct Slot
    {
        Tick when = 0;
        /** Next slot in its bucket list, or in the free list. */
        std::uint32_t next = nil;
        /** Never 0, so invalidTimerId never names a slot. */
        std::uint32_t gen = 1;
        bool timer = false;
        /** A cancelled timeout: a tombstone awaiting reclaim. */
        bool cancelled = false;
    };
    static_assert(sizeof(Slot) == 24);

    /** A spill or reference heap entry; ties on when resolve by seq. */
    struct Key
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** Min-heap order: (when, seq) ascending. */
    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** A one-tick FIFO of slots linked through Slot::next. */
    struct Bucket
    {
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    std::vector<Slot> _slots;
    std::uint32_t _freeHead = nil;
    /**
     * The slots' callbacks, in fixed-size chunks that never move, so
     * growing the slab while a callback runs leaves it in place.
     */
    std::vector<std::unique_ptr<EventFn[]>> _fns;

    /** Tier 1: per-tick buckets over [_now, _now + ladderBuckets). */
    std::array<Bucket, ladderBuckets> _ladder;
    /** Bit i set iff _ladder[i] holds entries. */
    std::uint64_t _bits[bitmapWords] = {};

    /** Tier 2: min-heap of keys at or beyond _now + ladderBuckets. */
    std::vector<Key> _spill;
    std::uint64_t _spilled = 0;

    /** Reference mode: one naive heap replaces both tiers. */
    bool _refMode = false;
    RefQueue<Key, Later> _ref;

    obs::Context _obs;

    Tick _now = 0;
    /** Starts at 1 so seq 0 can mean "unset" in debugging dumps. */
    std::uint64_t _nextSeq = 1;
    std::uint64_t _executed = 0;
    /** Live (un-cancelled) events across all tiers. */
    std::size_t _size = 0;
    /** Cancelled-timeout tombstones still resident in a tier. */
    std::size_t _deadEntries = 0;
    std::size_t _pendingTimerCount = 0;

    bool dead(std::uint32_t slot) const { return _slots[slot].cancelled; }

    /**
     * True when @p when (>= now) falls inside the ladder window. The
     * unsigned difference cannot wrap, so a window reaching past
     * maxTick still takes every event up to it.
     */
    bool inWindow(Tick when) const { return when - _now < ladderBuckets; }
    bool
    spillFrontInWindow() const
    {
        return !_spill.empty() && inWindow(_spill.front().when);
    }
    /**
     * Move the clock forward to @p t and refill the window it now
     * covers; every advance of now goes through here, before any
     * callback at the new time can schedule.
     */
    void
    advanceTo(Tick t)
    {
        _now = t;
        if (spillFrontInWindow())
            refill();
    }

    EventFn &
    fnOf(std::uint32_t slot)
    {
        return _fns[slot / callbackChunkSize][slot % callbackChunkSize];
    }

    /** Build @p fn in a free slot, file it by @p when; returns the slot. */
    template <typename F>
    std::uint32_t
    push(Tick when, bool timer, F &&fn)
    {
        std::uint32_t slot = _freeHead;
        if (slot != nil) [[likely]]
            _freeHead = _slots[slot].next;
        else
            slot = growSlab();
        EventFn &dst = fnOf(slot);
        if constexpr (noexcept(dst.emplace(std::forward<F>(fn)))) {
            dst.emplace(std::forward<F>(fn));
        } else {
            // A copy that can throw (a std::function lvalue, say) must
            // not leak the slot it was taking.
            try {
                dst.emplace(std::forward<F>(fn));
            } catch (...) {
                release(slot);
                throw;
            }
        }
        file(slot, when, timer);
        return slot;
    }
    /** Append a new slot, and a callback chunk when it starts one. */
    std::uint32_t growSlab();
    /** Diagnose a schedule for a past tick; returns now. */
    Tick clampPast(Tick when) const;
    /** File @p slot, its callback built, in its tier by @p when. */
    void file(std::uint32_t slot, Tick when, bool timer);
    /** Make the slot's TimerId stale: bump the generation, clear flags. */
    void retire(std::uint32_t slot);
    /** Put a retired slot, whose callback is gone, on the free list. */
    void
    release(std::uint32_t slot)
    {
        _slots[slot].next = _freeHead;
        _freeHead = slot;
    }
    /** Retire and release a tombstone's slot. */
    void freeSlot(std::uint32_t slot);
    void append(std::size_t idx, std::uint32_t slot);
    /** Unlink and return the head of bucket @p idx. */
    std::uint32_t popBucket(std::size_t idx);
    std::uint32_t popSpill();
    void setBit(std::size_t i) { _bits[i >> 6] |= 1ull << (i & 63); }
    void clearBit(std::size_t i) { _bits[i >> 6] &= ~(1ull << (i & 63)); }
    /** Earliest non-empty bucket in window scan order, or -1. */
    int nextBucketIndex() const;
    /** Move every spill key inside the window into its bucket. */
    void refill();
    /**
     * Free the cancelled tombstones at the front of the pop order; on
     * a queue with no live events that is every resident entry.
     */
    void settle();
    /** Free every tombstone from every tier (amortized reclaim). */
    void compact();
};

} // namespace griffin::sim

#endif // GRIFFIN_SIM_EVENT_QUEUE_HH
