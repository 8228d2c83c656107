/**
 * @file
 * Unit tests for sim::EventQueue: ordering, same-tick FIFO, nested
 * scheduling, run-until semantics, the slot slab behind them, and
 * in-place dispatch from the callback chunks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"

using griffin::Tick;
using griffin::sim::EventQueue;

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ZeroDelayRunsAfterAlreadyQueuedSameTickWork)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(0, [&] {
        order.push_back(1);
        q.schedule(0, [&] { order.push_back(3); });
    });
    q.schedule(0, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NestedSchedulingAdvancesTime)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(10, [&] {
        q.schedule(15, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 25u);
}

TEST(EventQueue, RunOneExecutesExactlyOneEvent)
{
    EventQueue q;
    int count = 0;
    q.schedule(1, [&] { ++count; });
    q.schedule(2, [&] { ++count; });
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(count, 1);
    EXPECT_EQ(q.now(), 1u);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    std::vector<Tick> fired;
    for (Tick t = 10; t <= 100; t += 10)
        q.scheduleAt(t, [&fired, &q] { fired.push_back(q.now()); });
    q.runUntil(50);
    EXPECT_EQ(fired.size(), 5u);
    EXPECT_EQ(q.now(), 50u);
    q.run();
    EXPECT_EQ(fired.size(), 10u);
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenIdle)
{
    EventQueue q;
    q.runUntil(1000);
    EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, EventsExecutedCounts)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(Tick(i), [] {});
    q.run();
    EXPECT_EQ(q.eventsExecuted(), 7u);
}

TEST(EventQueue, ScheduleAtCurrentTimeIsLegal)
{
    EventQueue q;
    bool ran = false;
    q.schedule(5, [&] {
        q.scheduleAt(q.now(), [&] { ran = true; });
    });
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SchedulingInThePastClampsToNow)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();
    EXPECT_EQ(q.now(), 10u);

    // A past-time schedule is a model bug, but killing a long sweep
    // over it helps nobody: the event is clamped to now and a warning
    // logged, so time still never moves backwards.
    Tick ranAt = 0;
    q.scheduleAt(5, [&] { ranAt = q.now(); });
    q.run();
    EXPECT_EQ(ranAt, 10u);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, ClampedPastEventKeepsFifoOrderAtNow)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.run();

    // The clamped event lands at now *after* anything already
    // scheduled there, preserving same-tick FIFO determinism.
    std::vector<int> order;
    q.scheduleAt(10, [&] { order.push_back(1); });
    q.scheduleAt(3, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, TimeoutFiresLikeAnEvent)
{
    EventQueue q;
    Tick firedAt = 0;
    const auto id = q.scheduleTimeout(25, [&] { firedAt = q.now(); });
    EXPECT_NE(id, griffin::sim::invalidTimerId);
    EXPECT_EQ(q.pendingTimeouts(), 1u);
    q.run();
    EXPECT_EQ(firedAt, 25u);
    EXPECT_EQ(q.pendingTimeouts(), 0u);
}

TEST(EventQueue, CancelledTimeoutNeverFires)
{
    EventQueue q;
    bool fired = false;
    const auto id = q.scheduleTimeout(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancelTimeout(id));
    EXPECT_EQ(q.pendingTimeouts(), 0u);
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceIsFalse)
{
    EventQueue q;
    const auto id = q.scheduleTimeout(10, [] {});
    EXPECT_TRUE(q.cancelTimeout(id));
    EXPECT_FALSE(q.cancelTimeout(id));
    EXPECT_FALSE(q.cancelTimeout(griffin::sim::invalidTimerId));
}

TEST(EventQueue, CancelAfterFireIsFalse)
{
    EventQueue q;
    const auto id = q.scheduleTimeout(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancelTimeout(id));
}

TEST(EventQueue, CancelledTimeoutDoesNotExtendRun)
{
    // A recovery timer armed past the last real event must not drag
    // the simulated end time out to its (cancelled) deadline.
    EventQueue q;
    q.schedule(10, [] {});
    const auto id = q.scheduleTimeout(1000000, [] {});
    q.schedule(5, [&] { q.cancelTimeout(id); });
    EXPECT_EQ(q.run(), 10u);
}

TEST(EventQueue, SizeExcludesCancelledTimeouts)
{
    EventQueue q;
    q.schedule(10, [] {});
    const auto id = q.scheduleTimeout(20, [] {});
    EXPECT_EQ(q.size(), 2u);
    q.cancelTimeout(id);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
}

TEST(EventQueue, RunUntilIgnoresCancelledDeadline)
{
    // A cancelled entry sitting at the top of the heap must not let
    // runUntil() execute a real event beyond the limit.
    EventQueue q;
    std::vector<Tick> fired;
    const auto id = q.scheduleTimeout(10, [&] { fired.push_back(10); });
    q.schedule(50, [&] { fired.push_back(50); });
    q.cancelTimeout(id);
    q.runUntil(20);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(q.now(), 20u);
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{50}));
}

TEST(EventQueue, RunUntilAdvancesToLimitWhenQueueDrainsEarly)
{
    // The drained-early contract: the caller asked to simulate up to
    // the limit, so that much time has passed even though the last
    // event fired long before it. Periodic callers (watchdog quiesce
    // checks, stats flushes) rely on observing now() == limit.
    EventQueue q;
    Tick lastEvent = 0;
    q.schedule(10, [&] { lastEvent = q.now(); });
    EXPECT_EQ(q.runUntil(500), 500u);
    EXPECT_EQ(lastEvent, 10u);
    EXPECT_EQ(q.now(), 500u);
    EXPECT_TRUE(q.empty());

    // Draining again from the advanced clock is idempotent, and a
    // later event is unaffected by the artificial advance.
    EXPECT_EQ(q.runUntil(500), 500u);
    Tick firedAt = 0;
    q.schedule(100, [&] { firedAt = q.now(); });
    q.run();
    EXPECT_EQ(firedAt, 600u);
}

TEST(EventQueue, NextTimeIsExactAfterCancel)
{
    // Arm a far-future recovery timer next to a near event, then
    // cancel it: nextTime()/size()/pendingTimeouts() must all agree
    // immediately — no tombstone may keep the dead deadline visible.
    EventQueue q;
    q.schedule(10, [] {});
    const auto id = q.scheduleTimeout(1000000, [] {});
    EXPECT_EQ(q.nextTime(), 10u);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pendingTimeouts(), 1u);

    EXPECT_TRUE(q.cancelTimeout(id));
    EXPECT_EQ(q.nextTime(), 10u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pendingTimeouts(), 0u);

    EXPECT_TRUE(q.runOne());
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTime(), griffin::maxTick);
}

TEST(EventQueue, NextTimeSkipsCancelledFront)
{
    // The cancelled timeout is the *earliest* entry: nextTime() must
    // report the first live event, not the tombstone's deadline.
    EventQueue q;
    const auto id = q.scheduleTimeout(5, [] {});
    q.schedule(50, [] {});
    EXPECT_EQ(q.nextTime(), 5u);
    EXPECT_TRUE(q.cancelTimeout(id));
    EXPECT_EQ(q.nextTime(), 50u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueStress, MillionTimerChurnKeepsMemoryBounded)
{
    // Chaos-style churn: the executor arms a recovery timer per batch
    // and cancels nearly all of them when the transfers land. A naive
    // tombstone scheme would accumulate one dead entry per cancel;
    // the queue must reclaim them and recycle timer slots.
    EventQueue q;
    constexpr int rounds = 1000000;
    std::uint32_t rng = 12345;
    std::uint64_t fired = 0;
    std::uint64_t cancelled = 0;
    std::vector<griffin::sim::TimerId> armed;
    for (int i = 0; i < rounds; ++i) {
        rng = rng * 1664525u + 1013904223u; // deterministic LCG
        // Short deadlines land in the ladder; every 8th timer is
        // pushed past the window into the spill heap (and is one of
        // the cancelled ones, so spill tombstones get exercised too).
        const Tick delay = 1 + (rng >> 24) + ((i & 7) == 3 ? 5000 : 0);
        armed.push_back(q.scheduleTimeout(delay, [&] { ++fired; }));
        if (armed.size() >= 8) {
            // Cancel 7 of 8; let the survivor fire (or linger).
            for (std::size_t k = 1; k < armed.size(); ++k)
                if (q.cancelTimeout(armed[k]))
                    ++cancelled;
            armed.clear();
        }
        if ((i & 1023) == 0)
            q.runUntil(q.now() + 16);
    }
    q.run();

    EXPECT_EQ(fired + cancelled, std::uint64_t(rounds));
    EXPECT_EQ(q.pendingTimeouts(), 0u);
    EXPECT_EQ(q.residentEntries(), 0u);
    // Slots recycle through the free list: the high-water mark is the
    // peak number of simultaneously pending timers (plus tombstoned
    // slots awaiting their entry's reclaim), not the total ever armed.
    EXPECT_LT(q.slotsAllocated(), 20000u);
}

TEST(EventQueueStress, InterleavedEventsAndCancelsStayOrdered)
{
    // Timer churn interleaved with plain events: cancellations must
    // never disturb execution order of live work.
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    std::uint32_t rng = 99;
    griffin::sim::TimerId pending = griffin::sim::invalidTimerId;
    for (int i = 0; i < 20000; ++i) {
        rng = rng * 1664525u + 1013904223u;
        const Tick t = 1 + (rng % 4096);
        q.schedule(t, [&, i] {
            (void)i;
            if (q.now() < last)
                monotonic = false;
            last = q.now();
        });
        if (pending != griffin::sim::invalidTimerId)
            q.cancelTimeout(pending);
        pending = q.scheduleTimeout(t + 100000, [] {});
        if ((i & 255) == 0)
            q.runUntil(q.now() + 64);
    }
    if (pending != griffin::sim::invalidTimerId)
        q.cancelTimeout(pending);
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.residentEntries(), 0u);
}

// --- Window-boundary properties ------------------------------------
// The ladder covers the rolling window [now, now + 1024); events
// beyond it land in the spill heap and move into the ladder as now
// advances over them. Nothing about that seam may be observable: FIFO
// within a tick, global time order, and nextTime() exactness all hold
// on both sides of the boundary and as the window rolls.

TEST(EventQueueWindow, FifoHoldsAcrossTheLadderSpillBoundary)
{
    // Ticks 1022/1023 sit in the last ladder buckets, 1024/1025 spill.
    // Interleave schedules across the seam: execution must follow
    // (when, schedule order) exactly, as if the tiers did not exist.
    EventQueue q;
    std::vector<std::pair<Tick, int>> fired;
    std::vector<std::pair<Tick, int>> expected;
    int arrival = 0;
    for (int round = 0; round < 8; ++round) {
        for (Tick t : {Tick(1022), Tick(1023), Tick(1024), Tick(1025)}) {
            const int id = arrival++;
            q.scheduleAt(t, [&fired, t, id] { fired.push_back({t, id}); });
            expected.push_back({t, id});
        }
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    q.run();
    EXPECT_EQ(fired, expected);
}

TEST(EventQueueWindow, SpillRedistributionPreservesFifoWithinTick)
{
    // All 64 events share one far-future tick, so every one takes the
    // spill -> refill -> ladder path; schedule order survives it.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        q.schedule(5000, [&order, i] { order.push_back(i); });
    q.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueueWindow, LateArrivalsAtARedistributedTickStayFifo)
{
    // The first four events at tick 5000 spill; at tick 4000 the
    // window has rolled so 5000 is a ladder bucket, and four more
    // events append there directly. Global schedule order must still
    // win.
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 4; ++i)
        q.schedule(5000, [&order, i] { order.push_back(i); });
    q.schedule(4000, [&] {
        for (int i = 4; i < 8; ++i)
            q.schedule(1000, [&order, i] { order.push_back(i); });
    });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventQueueWindow, NextTimeIsExactAfterCancelsAroundTheBoundary)
{
    // One timeout on each side of the seam plus a far event: as
    // timeouts cancel, nextTime() must step to the earliest *live*
    // entry with no tombstone — in the ladder or the spill top —
    // shining through.
    EventQueue q;
    const auto inLadder = q.scheduleTimeout(1023, [] {});
    const auto inSpill = q.scheduleTimeout(1024, [] {});
    q.schedule(1500, [] {});
    EXPECT_EQ(q.nextTime(), 1023u);

    EXPECT_TRUE(q.cancelTimeout(inLadder));
    EXPECT_EQ(q.nextTime(), 1024u);
    EXPECT_EQ(q.size(), 2u);

    EXPECT_TRUE(q.cancelTimeout(inSpill));
    EXPECT_EQ(q.nextTime(), 1500u);
    EXPECT_EQ(q.size(), 1u);

    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.now(), 1500u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTime(), griffin::maxTick);
}

TEST(EventQueueWindow, CancelledSpillTopDoesNotBlockTheJump)
{
    // The spill's earliest entry is a cancelled timeout: an empty
    // ladder must jump to the first live event, not stop on (or fire
    // at) the tombstone's deadline.
    EventQueue q;
    const auto dead = q.scheduleTimeout(2000, [] {});
    Tick firedAt = 0;
    q.schedule(3000, [&] { firedAt = q.now(); });
    EXPECT_TRUE(q.cancelTimeout(dead));
    EXPECT_EQ(q.run(), 3000u);
    EXPECT_EQ(firedAt, 3000u);
}

TEST(EventQueueWindow, TieredAndReferenceSchedulersAgreeOnOrder)
{
    // One randomized script — bursty delays straddling the window,
    // timer arms, cancels, partial drains, and callbacks that schedule
    // follow-ups from wherever now has advanced to — must fire
    // callbacks in the identical order on the tiered queue and on the
    // naive reference heap (the differential the fuzz oracles rely
    // on).
    struct Script
    {
        EventQueue &q;
        std::vector<int> &order;
        std::uint32_t rng = 2024;
        int id = 0;
        int followUps = 6000;

        std::uint32_t
        draw()
        {
            rng = rng * 1664525u + 1013904223u;
            return rng;
        }

        // Each callback records itself and, while the budget lasts,
        // schedules one follow-up 0..2047 ticks after its own now.
        void
        fire(int self)
        {
            order.push_back(self);
            if (followUps <= 0)
                return;
            --followUps;
            const std::uint32_t r = draw();
            const int child = id++;
            q.schedule((r >> 20) & 2047, [this, child] { fire(child); });
        }
    };

    const auto script = [](EventQueue &q, std::vector<int> &order) {
        Script sc{q, order};
        std::vector<griffin::sim::TimerId> timers;
        for (int i = 0; i < 3000; ++i) {
            const std::uint32_t rng = sc.draw();
            const Tick delay = (rng >> 20) & 4095; // straddles 1024
            const int id = sc.id++;
            if ((rng & 3) == 0) {
                timers.push_back(q.scheduleTimeout(
                    delay + 1, [&order, id] { order.push_back(id); }));
            } else if ((rng & 3) == 1) {
                q.schedule(delay, [&order, id] { order.push_back(id); });
            } else {
                q.schedule(delay, [&sc, id] { sc.fire(id); });
            }
            if ((rng & 15) == 1 && !timers.empty()) {
                q.cancelTimeout(timers.back());
                timers.pop_back();
            }
            if ((i & 127) == 0)
                q.runUntil(q.now() + 256);
        }
        q.run();
    };

    EventQueue tiered;
    std::vector<int> tieredOrder;
    script(tiered, tieredOrder);

    EventQueue reference;
    reference.enableReferenceMode();
    ASSERT_TRUE(reference.referenceMode());
    std::vector<int> referenceOrder;
    script(reference, referenceOrder);

    EXPECT_FALSE(tieredOrder.empty());
    EXPECT_EQ(tieredOrder, referenceOrder);
    EXPECT_EQ(tiered.eventsExecuted(), reference.eventsExecuted());
    EXPECT_EQ(tiered.now(), reference.now());
}

TEST(EventQueueWindow, SpilledEventRunsBeforeALaterScheduleForItsTick)
{
    // A is filed for tick 5000 while it lies past the window. A
    // heartbeat that reschedules itself every 100 ticks keeps the
    // ladder from ever draining, so the window rolls over 5000 with
    // other work resident. B, scheduled for the same tick by the
    // heartbeat once it is near, must still run after A.
    EventQueue q;
    std::vector<char> order;
    q.scheduleAt(5000, [&] { order.push_back('A'); });
    griffin::sim::InlineFn<void()> beat;
    beat = [&] {
        if (q.now() == 4500)
            q.scheduleAt(5000, [&] { order.push_back('B'); });
        if (q.now() < 6000)
            q.schedule(100, [&] { beat(); });
    };
    q.schedule(100, [&] { beat(); });
    q.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
    EXPECT_EQ(q.now(), 6000u);
    EXPECT_EQ(q.spilledEvents(), 1u);
}

TEST(EventQueueWindow, RunUntilBringsSpilledEventsIntoTheWindowInOrder)
{
    // The same ordering when runUntil() is what moves now far enough
    // for tick 5000 to enter the window.
    EventQueue q;
    std::vector<char> order;
    q.scheduleAt(5000, [&] { order.push_back('A'); });
    q.scheduleAt(9000, [] {});
    q.runUntil(4500);
    ASSERT_EQ(q.now(), 4500u);
    q.scheduleAt(5000, [&] { order.push_back('B'); });
    EXPECT_EQ(q.spilledEvents(), 2u);
    q.run();
    EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
    EXPECT_EQ(q.now(), 9000u);
}

TEST(EventQueueWindow, ChainsBelowTheWindowWidthNeverSpill)
{
    // Self-rescheduling chains whose delays mirror the SC fabric mix
    // (1 tick, 8..31, 256..1023 — every one under the ladder width)
    // must never touch the spill, however far now moves.
    EventQueue q;
    std::uint32_t rng = 7;
    std::uint64_t left = 200000;
    griffin::sim::InlineFn<void()> hop;
    hop = [&] {
        if (left == 0)
            return;
        --left;
        rng = rng * 1664525u + 1013904223u;
        const std::uint32_t r = rng >> 16;
        const Tick delay = (r % 5 == 0)   ? 1
                           : (r % 5 < 3) ? 8 + r % 24
                                         : 256 + r % 768;
        q.schedule(delay, [&] { hop(); });
    };
    for (int chain = 0; chain < 64; ++chain)
        q.schedule(Tick(chain), [&] { hop(); });
    q.run();
    EXPECT_EQ(q.eventsExecuted(), 64u + 200000u);
    EXPECT_GT(q.now(), 100u * 1024u);
    EXPECT_EQ(q.spilledEvents(), 0u);

    // One tick further is past the window.
    q.schedule(1024, [] {});
    EXPECT_EQ(q.spilledEvents(), 1u);
}

TEST(EventQueue, ManyEventsKeepTotalOrder)
{
    EventQueue q;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        const Tick t = Tick((i * 7919) % 1000);
        q.scheduleAt(t, [&, t] {
            if (t < last)
                monotonic = false;
            last = t;
        });
    }
    q.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(q.eventsExecuted(), 5000u);
}

// --- The slot slab ---------------------------------------------------
// Every pending event, plain or timer, is one slab slot that returns
// to a free list once its event ran or its tombstone was reclaimed.
// Recycling must never let an old TimerId, a throw, or a destroyed
// queue observe (or leak) a slot's next occupant.

TEST(EventQueueSlab, StaleTimerIdIsRefusedAfterItsSlotIsRecycled)
{
    EventQueue q;
    const auto cancelled = q.scheduleTimeout(10, [] {});
    ASSERT_TRUE(q.cancelTimeout(cancelled));
    // The slot is free again and a plain event takes it.
    bool plainRan = false;
    q.schedule(5, [&] { plainRan = true; });
    EXPECT_EQ(q.slotsAllocated(), 1u);
    EXPECT_FALSE(q.cancelTimeout(cancelled));
    EXPECT_EQ(q.size(), 1u);
    q.run();
    EXPECT_TRUE(plainRan);

    // A fired timer's slot goes to the next timer armed.
    const auto fired = q.scheduleTimeout(5, [] {});
    q.run();
    bool timerRan = false;
    const auto current = q.scheduleTimeout(5, [&] { timerRan = true; });
    EXPECT_EQ(q.slotsAllocated(), 1u);
    EXPECT_NE(current, fired);
    EXPECT_FALSE(q.cancelTimeout(fired));
    EXPECT_EQ(q.pendingTimeouts(), 1u);
    q.run();
    EXPECT_TRUE(timerRan);
}

TEST(EventQueueSlab, TombstoneRefusesASecondCancelUntilReclaimed)
{
    // With other work pending, a cancelled timeout behind a live head
    // stays resident as a tombstone; its id must stay dead meanwhile.
    EventQueue q;
    q.schedule(10, [] {});
    const auto id = q.scheduleTimeout(10, [] {});
    ASSERT_TRUE(q.cancelTimeout(id));
    EXPECT_EQ(q.residentEntries(), 2u);
    EXPECT_FALSE(q.cancelTimeout(id));
    q.run();
    EXPECT_EQ(q.residentEntries(), 0u);
    EXPECT_EQ(q.eventsExecuted(), 1u);
}

TEST(EventQueueSlab, TimerCancellingItselfFromItsCallbackGetsFalse)
{
    EventQueue q;
    griffin::sim::TimerId id = griffin::sim::invalidTimerId;
    bool result = true;
    id = q.scheduleTimeout(10, [&] { result = q.cancelTimeout(id); });
    q.schedule(20, [] {});
    EXPECT_EQ(q.run(), 20u);
    EXPECT_FALSE(result);
    EXPECT_EQ(q.pendingTimeouts(), 0u);
    EXPECT_EQ(q.eventsExecuted(), 2u);
}

TEST(EventQueueSlab, ThrowingCallbackLeavesTheQueueConsistent)
{
    // A tombstone sits right behind the thrower in its bucket: once
    // the thrower pops, the queue must already report the next live
    // event, not the cancelled deadline.
    EventQueue q;
    q.schedule(10, [] { throw std::runtime_error("boom"); });
    const auto id = q.scheduleTimeout(10, [] {});
    bool ran = false;
    q.schedule(20, [&] { ran = true; });
    ASSERT_TRUE(q.cancelTimeout(id));
    EXPECT_EQ(q.size(), 2u);

    EXPECT_THROW(q.runOne(), std::runtime_error);
    EXPECT_EQ(q.now(), 10u);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.nextTime(), 20u);
    EXPECT_EQ(q.residentEntries(), 1u);

    EXPECT_TRUE(q.runOne());
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueSlab, QueuedCapturesAreDestroyedWithTheQueue)
{
    auto token = std::make_shared<int>(0);
    {
        EventQueue q;
        q.schedule(5, [token] {});    // ladder
        q.schedule(5000, [token] {}); // spill
        q.scheduleTimeout(10, [token] {});
        const auto id = q.scheduleTimeout(20, [token] {});
        EXPECT_EQ(token.use_count(), 5);
        // Cancelling releases the capture at once, not at reclaim.
        ASSERT_TRUE(q.cancelTimeout(id));
        EXPECT_EQ(token.use_count(), 4);
        q.runOne();
        EXPECT_EQ(token.use_count(), 3);
    }
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueSlab, LongSameTickCascadeStaysFifoAndBounded)
{
    // One event fans out 100 zero-delay events and each of those
    // schedules one more: every child joins the tail of the bucket
    // being consumed, behind all of the fan-out.
    EventQueue q;
    std::vector<int> order;
    std::size_t peak = 0;
    q.schedule(7, [&] {
        for (int i = 0; i < 100; ++i) {
            q.schedule(0, [&q, &order, &peak, i] {
                order.push_back(i);
                peak = std::max(peak, q.residentEntries());
                q.schedule(0, [&order, i] { order.push_back(100 + i); });
            });
        }
    });
    q.run();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(order[std::size_t(i)], i);
    EXPECT_EQ(q.now(), 7u);
    EXPECT_LE(peak, 100u);
    EXPECT_LE(q.slotsAllocated(), 101u);
}

TEST(EventQueueSlab, ScheduleAtNowAfterRunUntilPastTheWindowStaysFifo)
{
    // runUntil() moves now thousands of ticks while a spill event
    // keeps the queue non-empty; the window rolls with it, so events
    // at the new now enter the ladder and run in schedule order.
    EventQueue q;
    std::vector<int> order;
    q.schedule(100000, [&] { order.push_back(99); });
    q.runUntil(5000);
    ASSERT_EQ(q.now(), 5000u);
    for (int i = 0; i < 4; ++i) {
        q.scheduleAt(q.now(), [&q, &order, i] {
            order.push_back(i);
            if (i == 0)
                q.scheduleAt(q.now(), [&order] { order.push_back(4); });
        });
    }
    q.schedule(1, [&] { order.push_back(5); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 99}));
    EXPECT_EQ(q.now(), 100000u);
}

TEST(EventQueueSlab, DeadlineNearMaxTickRuns)
{
    // A window that would reach past maxTick must not wrap: events
    // near the end of time still enter the ladder and run.
    EventQueue q;
    q.runUntil(griffin::maxTick - 10);
    std::vector<int> order;
    q.schedule(3, [&] { order.push_back(0); });
    q.scheduleAt(griffin::maxTick - 1, [&] { order.push_back(1); });
    q.schedule(3, [&] { order.push_back(2); });
    EXPECT_EQ(q.nextTime(), griffin::maxTick - 7);
    EXPECT_EQ(q.spilledEvents(), 0u);
    EXPECT_EQ(q.run(), griffin::maxTick - 1);
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
    EXPECT_TRUE(q.empty());
}

// --- In-place dispatch -----------------------------------------------
// Callbacks live in fixed-size chunks apart from the slot slab and run
// where they were built; the slot is freed only after its callback
// returns or throws.

TEST(EventQueueInPlace, FirstChunkComesWithTheFirstSchedule)
{
    EventQueue q;
    EXPECT_EQ(q.callbackChunks(), 0u);
    EXPECT_EQ(q.slotsAllocated(), 0u);
    q.schedule(1, [] {});
    EXPECT_EQ(q.callbackChunks(), 1u);
    q.run();
    EXPECT_EQ(q.callbackChunks(), 1u);
}

TEST(EventQueueInPlace, CallbackSurvivesTheGrowthItCauses)
{
    // A running callback schedules more than two chunks' worth of
    // events, so both the slot slab and the chunk vector grow under
    // it; its own captures must still read back intact.
    EventQueue q;
    constexpr std::size_t children = 2 * EventQueue::callbackChunkSize + 50;
    constexpr std::uint64_t expectedKey = 0xfeedfacecafebeefull;
    struct Seen
    {
        std::size_t ran = 0;
        bool intact = false;
    } seen;
    // 56 bytes of capture, a heap-allocated (non-SSO) string among
    // them: a callback moved while running would read freed memory.
    q.schedule(1, [&q, &seen, tag = std::string(40, 'x'),
                   key = expectedKey] {
        for (std::size_t i = 0; i < children; ++i)
            q.schedule(1 + i % 7, [&seen] { ++seen.ran; });
        seen.intact = tag == std::string(40, 'x') && key == expectedKey;
    });
    q.run();
    EXPECT_TRUE(seen.intact);
    EXPECT_EQ(seen.ran, children);
    EXPECT_GE(q.callbackChunks(), 3u);
    EXPECT_GE(q.slotsAllocated(), children + 1);
}

TEST(EventQueueInPlace, ThrowingCallbackReleasesItsCaptureAndItsSlot)
{
    EventQueue q;
    auto token = std::make_shared<int>(0);
    q.schedule(1, [token] { throw std::runtime_error("boom"); });
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_THROW(q.runOne(), std::runtime_error);
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_TRUE(q.empty());
    // The thrower's slot is back on the free list.
    bool ran = false;
    q.schedule(1, [&ran] { ran = true; });
    EXPECT_EQ(q.slotsAllocated(), 1u);
    q.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueueInPlace, RunningCallbackDoesNotShareItsSlot)
{
    // The slot of the running event is off the free list until its
    // callback is gone, so a schedule from inside takes another one.
    EventQueue q;
    std::size_t during = 0;
    q.schedule(1, [&] {
        q.schedule(1, [] {});
        during = q.slotsAllocated();
    });
    q.run();
    EXPECT_EQ(during, 2u);
    EXPECT_EQ(q.slotsAllocated(), 2u);
}

TEST(EventQueueInPlace, ThrowingCopyLeavesNoEventAndFreesItsSlot)
{
    // An lvalue callable is copied into its slot; a copy that throws
    // schedules nothing and returns the slot it was taking.
    struct CopyThrows
    {
        CopyThrows() = default;
        CopyThrows(const CopyThrows &) { throw std::runtime_error("copy"); }
        CopyThrows(CopyThrows &&) noexcept = default;
        void operator()() const {}
    };
    EventQueue q;
    const CopyThrows callable;
    EXPECT_THROW(q.schedule(1, callable), std::runtime_error);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.residentEntries(), 0u);
    bool ran = false;
    q.schedule(1, [&ran] { ran = true; });
    EXPECT_EQ(q.slotsAllocated(), 1u);
    q.run();
    EXPECT_TRUE(ran);
}
