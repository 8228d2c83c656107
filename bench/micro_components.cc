/**
 * @file
 * google-benchmark microbenchmarks for the hot substrate components:
 * event queue throughput, cache accesses and page flushes, TLB lookups
 * and fills, the DPC classifier, access counters, link arbitration
 * and fabric send + deliver. These bound the simulator's
 * own speed (events/second), which determines how large a workload
 * the harness can regenerate.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <vector>

#include "src/core/dpc.hh"
#include "src/gpu/access_counter.hh"
#include "src/interconnect/link.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/cache.hh"
#include "src/mem/page_table.hh"
#include "src/sim/engine.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/rng.hh"
#include "src/xlat/tlb.hh"

using namespace griffin;

// The queue benchmarks keep one queue across iterations, so they time
// the steady state a simulation runs in, not slab and callback-chunk
// growth from empty.

static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const std::size_t batch = std::size_t(state.range(0));
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < batch; ++i)
            q.schedule(Tick(i % 97), [&sink] { ++sink; });
        q.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(batch));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(16384);

static void
BM_EventQueueScheduleRunShared(benchmark::State &state)
{
    // ScheduleRun with a shared_ptr in every capture: a capture that is
    // not trivially copyable, so any move of it goes through its move
    // constructor and its destruction through its destructor.
    const std::size_t batch = std::size_t(state.range(0));
    sim::EventQueue q;
    const auto sink = std::make_shared<std::uint64_t>(0);
    for (auto _ : state) {
        for (std::size_t i = 0; i < batch; ++i)
            q.schedule(Tick(i % 97), [sink] { ++*sink; });
        q.run();
    }
    benchmark::DoNotOptimize(*sink);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(batch));
}
BENCHMARK(BM_EventQueueScheduleRunShared)->Arg(1024)->Arg(16384);

static void
BM_EventQueueSameTickCascade(benchmark::State &state)
{
    // Zero-delay continuations: each hop joins the tail of the
    // bucket being consumed, and the queue must sustain them without
    // growing.
    const std::uint64_t hops = std::uint64_t(state.range(0));
    sim::EventQueue q;
    for (auto _ : state) {
        std::uint64_t left = hops;
        sim::InlineFn<void()> step;
        step = [&] {
            if (--left > 0)
                q.schedule(0, [&] { step(); });
        };
        q.schedule(0, [&] { step(); });
        q.run();
        benchmark::DoNotOptimize(left);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(hops));
}
BENCHMARK(BM_EventQueueSameTickCascade)->Arg(4096);

static void
BM_EventQueueHopChain(benchmark::State &state)
{
    // Latency-hop chains (TLB -> cache -> DRAM shapes): every hop
    // moves time forward a little, so events flow through the ladder
    // buckets one tick apart.
    const std::uint64_t hops = std::uint64_t(state.range(0));
    sim::EventQueue q;
    for (auto _ : state) {
        std::uint64_t left = hops;
        sim::InlineFn<void()> step;
        step = [&] {
            if (--left > 0)
                q.schedule(1 + left % 13, [&] { step(); });
        };
        q.schedule(1, [&] { step(); });
        q.run();
        benchmark::DoNotOptimize(left);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(hops));
}
BENCHMARK(BM_EventQueueHopChain)->Arg(4096);

static void
BM_EventQueueTimerChurn(benchmark::State &state)
{
    // Chaos-style recovery timers: armed on the common path and
    // cancelled on the common path. Measures scheduleTimeout +
    // cancelTimeout round trips, including tombstone reclaim.
    const std::size_t batch = std::size_t(state.range(0));
    std::vector<sim::TimerId> ids(batch);
    sim::EventQueue q;
    for (auto _ : state) {
        std::uint64_t sink = 0;
        for (std::size_t i = 0; i < batch; ++i)
            ids[i] = q.scheduleTimeout(Tick(100 + i % 1000),
                                       [&sink] { ++sink; });
        // Cancel all but every 16th; the survivors fire.
        for (std::size_t i = 0; i < batch; ++i)
            if (i % 16 != 0)
                q.cancelTimeout(ids[i]);
        q.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(batch));
}
BENCHMARK(BM_EventQueueTimerChurn)->Arg(1024)->Arg(16384);

static void
BM_EventQueueFarHorizonMix(benchmark::State &state)
{
    // Deadlines far beyond the ladder window land in the spill heap
    // and move into their buckets as the window rolls over them.
    const std::size_t batch = std::size_t(state.range(0));
    sim::EventQueue q;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < batch; ++i) {
            const Tick delay =
                (i % 3 == 0) ? Tick(100000 + i * 37) : Tick(i % 800);
            q.schedule(delay, [&sink] { ++sink; });
        }
        q.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(batch));
}
BENCHMARK(BM_EventQueueFarHorizonMix)->Arg(16384);

static void
BM_EventQueueRollingHorizon(benchmark::State &state)
{
    // Self-rescheduling chains with the schedule-delay mix of an SC
    // first-touch run: 19% one tick, 43% 8..31 ticks, 37% 256..1023
    // ticks, none past the ladder window. Each hop is one bucket
    // append and one pop while now rolls the window forward.
    const std::size_t chains = std::size_t(state.range(0));
    constexpr std::size_t hopsPerIteration = 16384;
    std::uint32_t rng = 1;
    const auto nextDelay = [&rng] {
        rng = rng * 1664525u + 1013904223u;
        const std::uint32_t pick = (rng >> 8) % 100;
        const std::uint32_t r = rng >> 20;
        if (pick < 19)
            return Tick(1);
        if (pick < 62)
            return Tick(8 + r % 24);
        if (pick < 99)
            return Tick(256 + r % 768);
        return Tick(128 + r % 128);
    };
    sim::EventQueue q;
    sim::InlineFn<void()> hop;
    hop = [&] { q.schedule(nextDelay(), [&hop] { hop(); }); };
    for (std::size_t c = 0; c < chains; ++c)
        q.schedule(nextDelay(), [&hop] { hop(); });
    for (auto _ : state) {
        for (std::size_t i = 0; i < hopsPerIteration; ++i)
            q.runOne();
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(hopsPerIteration));
}
BENCHMARK(BM_EventQueueRollingHorizon)->Arg(512);

static void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache cache(mem::CacheConfig{std::uint64_t(state.range(0)),
                                      16, 64, 1});
    sim::Rng rng(7);
    for (auto _ : state) {
        const Addr addr = rng.nextBelow(8 * 1024 * 1024);
        benchmark::DoNotOptimize(cache.access(addr, rng.chance(0.3)));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_CacheAccess)->Arg(16 * 1024)->Arg(2 * 1024 * 1024);

static void
BM_CacheFlushPages(benchmark::State &state)
{
    // An ACUD drain's cache work: flush a few migrating pages out of a
    // full cache. Args: cache bytes, pages per flush (4 KB pages).
    constexpr unsigned pageShift = 12;
    constexpr Addr pageBytes = Addr(1) << pageShift;
    const std::uint64_t bytes = std::uint64_t(state.range(0));
    const PageId per_flush = PageId(state.range(1));
    mem::Cache cache(mem::CacheConfig{bytes, bytes > 64 * 1024 ? 16u : 4u,
                                      64, 1});
    const PageId footprint = bytes / pageBytes;
    const auto fill = [&](PageId first, PageId count) {
        for (PageId p = first; p < first + count; ++p)
            for (Addr a = 0; a < pageBytes; a += 64)
                cache.access(p * pageBytes + a, (a / 64) % 3 == 0);
    };
    fill(0, footprint);

    std::vector<PageId> pages(per_flush);
    PageId next = 0;
    for (auto _ : state) {
        for (PageId i = 0; i < per_flush; ++i)
            pages[i] = (next + i) % footprint;
        std::sort(pages.begin(), pages.end());
        // Manual time: only the flush is measured, not the refill.
        const auto start = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(cache.flushPages(pages, pageShift));
        state.SetIterationTime(std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start).count());
        for (const PageId p : pages)
            fill(p, 1);
        next = (next + per_flush) % footprint;
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_CacheFlushPages)
    ->ArgsProduct({{2 * 1024 * 1024, 16 * 1024}, {1, 5, 20}})
    ->UseManualTime();

static void
BM_TlbLookupHit(benchmark::State &state)
{
    // Args: sets, ways. 1 x 32 is the per-CU L1 TLB, 32 x 16 the L2.
    xlat::Tlb tlb(xlat::TlbConfig{unsigned(state.range(0)),
                                  unsigned(state.range(1)), 1});
    const PageId entries = tlb.capacity();
    for (PageId p = 0; p < entries; ++p)
        tlb.fill(p, 1);
    PageId p = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.lookup(p));
        p = (p + 1) % entries;
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_TlbLookupHit)->Args({32, 16})->Args({1, 32});

static void
BM_TlbFillEvict(benchmark::State &state)
{
    // Cycling through twice the capacity: every fill misses and
    // evicts the LRU way of a full set. Args: sets, ways.
    xlat::Tlb tlb(xlat::TlbConfig{unsigned(state.range(0)),
                                  unsigned(state.range(1)), 1});
    const PageId pages = 2 * PageId(tlb.capacity());
    PageId p = 0;
    for (auto _ : state) {
        tlb.fill(p, 1);
        p = (p + 1) % pages;
    }
    benchmark::DoNotOptimize(tlb.validEntries());
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_TlbFillEvict)->Args({1, 32})->Args({32, 16});

static void
BM_AccessCounterRecord(benchmark::State &state)
{
    gpu::AccessCounter counter(100);
    sim::Rng rng(3);
    for (auto _ : state)
        counter.record(rng.nextBelow(std::uint64_t(state.range(0))));
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_AccessCounterRecord)->Arg(50)->Arg(500);

static void
BM_DpcEndPeriod(benchmark::State &state)
{
    core::GriffinConfig cfg;
    mem::PageTable pt(12, 5);
    const std::uint64_t pages = std::uint64_t(state.range(0));
    for (PageId p = 0; p < pages; ++p)
        pt.setLocation(p, DeviceId(1 + p % 4));

    core::Dpc dpc(4, cfg);
    sim::Rng rng(11);
    for (auto _ : state) {
        state.PauseTiming();
        for (DeviceId g = 1; g <= 4; ++g) {
            std::vector<gpu::PageCount> counts;
            for (int i = 0; i < 20; ++i)
                counts.push_back(gpu::PageCount{
                    rng.nextBelow(pages),
                    std::uint32_t(rng.nextRange(1, 255))});
            dpc.addCounts(g, counts);
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(dpc.endPeriod(pt));
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_DpcEndPeriod)->Arg(1000)->Arg(10000);

static void
BM_LinkSend(benchmark::State &state)
{
    ic::Link link(ic::LinkConfig{32.0, 250});
    Tick now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(link.send(now, 0, 64));
        now += 2;
    }
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_LinkSend);

static void
BM_NetworkSendDeliver(benchmark::State &state)
{
    // One fabric message per item: Network::send reserves both wires
    // and schedules the receiver's callback, which the engine then
    // dispatches. The callback captures two pointers, the shape of
    // the simulator's {component, record} receivers.
    const std::size_t batch = std::size_t(state.range(0));
    const unsigned devices = 5;
    sim::Engine engine;
    ic::Network net(engine, devices, ic::LinkConfig{32.0, 250});
    std::uint64_t delivered = 0;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < batch; ++i) {
            const DeviceId src = DeviceId(i % devices);
            const DeviceId dst = DeviceId(
                (src + 1 + (i / devices) % (devices - 1)) % devices);
            net.send(src, dst, 64, [d = &delivered, b = &bytes] {
                ++*d;
                *b += 64;
            });
        }
        engine.run();
    }
    benchmark::DoNotOptimize(delivered);
    benchmark::DoNotOptimize(bytes);
    state.SetItemsProcessed(std::int64_t(state.iterations()) *
                            std::int64_t(batch));
}
BENCHMARK(BM_NetworkSendDeliver)->Arg(64)->Arg(1024);

static void
BM_PageTableOccupancy(benchmark::State &state)
{
    mem::PageTable pt(12, 5);
    for (PageId p = 0; p < 10000; ++p)
        pt.setLocation(p, DeviceId(1 + p % 4));
    for (auto _ : state)
        benchmark::DoNotOptimize(pt.hasHighestOccupancy(2));
    state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_PageTableOccupancy);

BENCHMARK_MAIN();
