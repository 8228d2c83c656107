#include "src/sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "src/obs/hostprof.hh"
#include "src/sim/log.hh"

namespace griffin::sim {

EventQueue::~EventQueue() = default;

void
EventQueue::enableReferenceMode()
{
    // The modes share the slab, clocks and counters but not the
    // ordering tiers, so switching is only sound while nothing is
    // resident.
    assert(_size == 0 && _deadEntries == 0 && _executed == 0 &&
           "reference mode must be enabled on a fresh queue");
    _refMode = true;
}

Tick
EventQueue::clampPast(Tick when) const
{
    // A component computed an absolute time that already passed —
    // diagnose loudly, then clamp so time stays monotone.
    GLOG(Warn, "scheduleAt(" << when << ") is in the past (now " << _now
                             << "); clamping to now");
    return _now;
}

bool
EventQueue::cancelTimeout(TimerId id)
{
    // Generations are never 0, so invalidTimerId matches no slot.
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu);
    const std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= _slots.size())
        return false;
    Slot &s = _slots[slot];
    if (s.gen != gen || !s.timer || s.cancelled)
        return false;

    // O(1): destroy the callback now and leave the entry in its tier
    // as a tombstone; front-pruning (settle) or amortized compaction
    // frees the slot later.
    s.cancelled = true;
    fnOf(slot) = nullptr;
    --_pendingTimerCount;
    --_size;
    ++_deadEntries;

    // With no live events left, settle() reclaims every tombstone, so
    // an idle queue holds no memory for cancelled work.
    settle();
    if (_deadEntries > 64 && _deadEntries > _size)
        compact();
    return true;
}

std::uint32_t
EventQueue::growSlab()
{
    const auto slot = static_cast<std::uint32_t>(_slots.size());
    _slots.emplace_back();
    if (slot % callbackChunkSize == 0)
        _fns.push_back(std::make_unique<EventFn[]>(callbackChunkSize));
    return slot;
}

void
EventQueue::file(std::uint32_t slot, Tick when, bool timer)
{
    ++_size;
    Slot &s = _slots[slot];
    s.when = when;
    s.timer = timer;
    if (timer)
        ++_pendingTimerCount;

    if (_refMode)
        _ref.push({when, _nextSeq++, slot});
    else if (inWindow(when))
        append(when & (ladderBuckets - 1), slot);
    else {
        _spill.push_back({when, _nextSeq++, slot});
        std::push_heap(_spill.begin(), _spill.end(), Later{});
        ++_spilled;
    }
}

void
EventQueue::retire(std::uint32_t slot)
{
    Slot &s = _slots[slot];
    s.timer = false;
    s.cancelled = false;
    if (++s.gen == 0)
        s.gen = 1;
}

void
EventQueue::freeSlot(std::uint32_t slot)
{
    assert(!fnOf(slot) && "a slot is freed only once its callback is gone");
    retire(slot);
    release(slot);
}

void
EventQueue::append(std::size_t idx, std::uint32_t slot)
{
    assert(_slots[slot].when >= _now && inWindow(_slots[slot].when));
    Bucket &bk = _ladder[idx];
    _slots[slot].next = nil;
    if (bk.tail == nil) {
        bk.head = slot;
        setBit(idx);
    } else {
        _slots[bk.tail].next = slot;
    }
    bk.tail = slot;
}

std::uint32_t
EventQueue::popBucket(std::size_t idx)
{
    Bucket &bk = _ladder[idx];
    const std::uint32_t slot = bk.head;
    bk.head = _slots[slot].next;
    if (bk.head == nil) {
        bk.tail = nil;
        clearBit(idx);
    }
    return slot;
}

std::uint32_t
EventQueue::popSpill()
{
    std::pop_heap(_spill.begin(), _spill.end(), Later{});
    const std::uint32_t slot = _spill.back().slot;
    _spill.pop_back();
    return slot;
}

int
EventQueue::nextBucketIndex() const
{
    // Circular scan of the non-empty bitmap anchored at now: every
    // entry lies in [now, now + N), so bucket (now + p) % N holds tick
    // now + p and index order in this scan IS time order.
    const std::size_t start = _now & (ladderBuckets - 1);
    const std::size_t startWord = start >> 6;
    const std::size_t startBit = start & 63;
    for (std::size_t k = 0; k <= bitmapWords; ++k) {
        const std::size_t w = (startWord + k) % bitmapWords;
        std::uint64_t word = _bits[w];
        if (k == 0)
            word &= ~std::uint64_t(0) << startBit;
        else if (k == bitmapWords)
            word &= startBit ? ~(~std::uint64_t(0) << startBit)
                             : std::uint64_t(0);
        if (word)
            return static_cast<int>(w * 64 +
                                    std::size_t(std::countr_zero(word)));
    }
    return -1;
}

void
EventQueue::refill()
{
    // advanceTo() calls this once the spill's front has entered the
    // window. Heap pops come out in (when, seq) order, and every key
    // for a tick moves before a later schedule can target it, so
    // bucket append order stays schedule order.
    do {
        const Tick when = _spill.front().when;
        const std::uint32_t slot = popSpill();
        if (dead(slot)) {
            freeSlot(slot);
            --_deadEntries;
        } else {
            append(when & (ladderBuckets - 1), slot);
        }
    } while (spillFrontInWindow());
}

Tick
EventQueue::nextTime() const
{
    if (_size == 0)
        return maxTick;
    if (_refMode)
        return _ref.top().when;
    // settle() keeps the front of the pop order live after every
    // mutation, so each tier's front reports an exact time. (An entry
    // behind a bucket's head may be a tombstone, but it shares its
    // tick with the live head by construction.)
    const int b = nextBucketIndex();
    if (b >= 0)
        return _slots[_ladder[static_cast<std::size_t>(b)].head].when;
    assert(!_spill.empty());
    return _spill.front().when;
}

void
EventQueue::settle()
{
    while (_deadEntries > 0) {
        std::uint32_t slot;
        if (_refMode) {
            if (!dead(_ref.top().slot))
                return;
            slot = _ref.pop().slot;
        } else if (const int b = nextBucketIndex(); b >= 0) {
            const std::size_t idx = static_cast<std::size_t>(b);
            if (!dead(_ladder[idx].head))
                return;
            slot = popBucket(idx);
        } else {
            if (!dead(_spill.front().slot))
                return;
            slot = popSpill();
        }
        freeSlot(slot);
        --_deadEntries;
    }
}

void
EventQueue::compact()
{
    const auto reap = [this](const Key &k) {
        if (!dead(k.slot))
            return false;
        freeSlot(k.slot);
        return true;
    };

    if (_refMode) {
        _ref.removeIf(reap);
        _deadEntries = 0;
        return;
    }

    // Ladder: relink each bucket's live slots in order; an emptied
    // bucket clears its bit.
    for (std::size_t w = 0; w < bitmapWords; ++w) {
        std::uint64_t word = _bits[w];
        while (word) {
            const std::size_t idx =
                w * 64 + std::size_t(std::countr_zero(word));
            word &= word - 1;
            Bucket &bk = _ladder[idx];
            std::uint32_t slot = bk.head;
            bk = Bucket{};
            clearBit(idx);
            while (slot != nil) {
                const std::uint32_t next = _slots[slot].next;
                if (dead(slot))
                    freeSlot(slot);
                else
                    append(idx, slot);
                slot = next;
            }
        }
    }

    // Spill: filter, then rebuild; the comparator restores the exact
    // (when, seq) pop order.
    _spill.erase(std::remove_if(_spill.begin(), _spill.end(), reap),
                 _spill.end());
    std::make_heap(_spill.begin(), _spill.end(), Later{});

    _deadEntries = 0;
}

std::size_t
EventQueue::residentEntries() const
{
    std::size_t total = _spill.size() + _ref.size();
    for (const Bucket &bk : _ladder) {
        for (std::uint32_t slot = bk.head; slot != nil;
             slot = _slots[slot].next)
            ++total;
    }
    return total;
}

bool
EventQueue::runOne()
{
    if (_size == 0)
        return false;

    // settle() keeps the front of the pop order live, so the front is
    // the next event.
    std::uint32_t slot;
    if (_refMode) {
        slot = _ref.pop().slot;
    } else {
        int b = nextBucketIndex();
        if (b < 0) {
            // The ladder is empty and the spill's front is live: jump
            // to it, which brings its tick into the window.
            advanceTo(_spill.front().when);
            b = static_cast<int>(_now & (ladderBuckets - 1));
        }
        slot = popBucket(static_cast<std::size_t>(b));
    }
    const Slot &s = _slots[slot];
    assert(!s.cancelled && s.when >= _now);
    advanceTo(s.when);
    ++_executed;
    --_size;
    if (s.timer)
        --_pendingTimerCount;

    // Retire the id before dispatching, so a timer that cancels itself
    // finds it stale. The slot stays off the free list until its
    // callback is gone, and callbacks live in chunks apart from the
    // slab, so whatever the callback schedules cannot move it.
    retire(slot);
    // Prune the front now, so the queue is consistent even if the
    // callback throws; on a drained queue this purges all tombstone
    // residue, so empty() also means "no resident memory".
    if (_deadEntries > 0)
        settle();

    // Bracket the dispatch so the profiler can attribute the
    // callback's wall time, then destroy the callback in place and
    // free its slot; all of it also when the callback throws (the
    // watchdog surfaces errors as exceptions mid-run).
    struct Dispatch
    {
        EventQueue &q;
        std::uint32_t slot;
        EventFn &fn;
        obs::HostProfiler *prof;
        ~Dispatch()
        {
            if (prof)
                prof->endDispatch();
            fn = nullptr;
            q.release(slot);
        }
    };
    const Dispatch dispatch{*this, slot, fnOf(slot), _obs.prof};
    if (dispatch.prof)
        dispatch.prof->beginDispatch();
    dispatch.fn();
    return true;
}

Tick
EventQueue::run()
{
    while (runOne()) {
    }
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    for (;;) {
        const Tick next = nextTime();
        if (next == maxTick || next > limit)
            break;
        runOne();
    }
    // The caller asked for this much simulated time to pass; advance
    // even when the queue drained early (see the header contract).
    if (_now < limit)
        advanceTo(limit);
    return _now;
}

} // namespace griffin::sim
