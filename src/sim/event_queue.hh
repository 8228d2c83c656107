/**
 * @file
 * A deterministic discrete-event queue.
 *
 * Events scheduled for the same tick execute in the order they were
 * scheduled (FIFO), which makes whole-system simulation results fully
 * reproducible for a given seed.
 *
 * Each pending event is one slot in a per-queue slab: the callback is
 * moved in once at schedule time and out once just before it runs.
 * The slots are ordered by two tiers (see DESIGN.md "Scheduler
 * internals"):
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
     */
    void schedule(Tick delay, EventFn fn) { push(_now + delay, std::move(fn), false); }

    /**
     * Schedule @p fn at absolute time @p when. Scheduling in the past
     * (@p when < now()) is a modeling bug: it is diagnosed with a
     * warning and clamped to now(), so time never runs backwards and
     * the event still executes (after all previously scheduled work
     * for the current tick).
     */
    void scheduleAt(Tick when, EventFn fn);

    /**
     * Schedule @p fn like schedule(), but return a handle that
     * cancelTimeout() accepts. Timeouts exist for recovery timers
     * (migration timeouts, ACK re-issue deadlines) that are armed on
     * the common path and cancelled on the common path: a cancelled
     * timeout neither fires nor extends the simulated end time.
     */
    TimerId scheduleTimeout(Tick delay, EventFn fn);

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
     * One pending event, or a free slot. A slot leaves the free list
     * when its event is scheduled and returns when the event runs or,
     * once cancelled, when its tier drops the tombstone; returning
     * bumps the generation, so a stale TimerId never matches again.
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
        EventFn fn;
    };

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

    /** Give @p fn a slot and file it by @p when; returns the slot. */
    std::uint32_t push(Tick when, EventFn &&fn, bool timer);
    /** Return a slot to the free list, bumping its generation. */
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
