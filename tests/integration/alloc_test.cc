/**
 * @file
 * Heap allocations on the memory-access path. A counting global
 * operator new (this binary only) checks that, once warmed up, an
 * access allocates nothing on any of its paths — local hit, local
 * miss, DCA to a GPU or the CPU, IOMMU round trip — and that a whole
 * run stays under one allocation per access.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <vector>

#include "src/sys/multi_gpu_system.hh"
#include "src/workloads/workload.hh"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
} // namespace

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    if (void *p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace griffin;

namespace {

/** Allocations made while @p fn runs. */
std::uint64_t
allocationsDuring(const std::function<void()> &fn)
{
    const std::uint64_t before = g_allocs.load();
    fn();
    return g_allocs.load() - before;
}

constexpr std::uint64_t kPage = 4096;
constexpr std::uint64_t kLine = 64;
/** GPU 1 holds this page; GPU 2 holds the next; the CPU the third. */
constexpr PageId kLocalPage = 16;
constexpr PageId kRemotePage = 17;
constexpr PageId kCpuPage = 18;

Addr
lineOf(PageId page, unsigned line)
{
    return Addr(page) * kPage + line * kLine;
}

/**
 * A baseline system whose GPU 1 issues hand-built wavefronts on CU 0.
 * The CPU page is in DCA-fallback mode, so every touch walks the page
 * table and reads CPU memory without consulting the policy; the
 * remote page's translation hits the IOTLB once walked.
 */
struct AccessRig
{
    sys::MultiGpuSystem system{sys::SystemConfig::baseline()};

    AccessRig()
    {
        // The system's metrics are installed from construction, so
        // remote-access latency sampling is on, as during run().
        system.pageTable().setLocation(kLocalPage, 1);
        system.pageTable().setLocation(kRemotePage, 2);
        system.pageTable().info(kCpuPage).dcaFallback = true;
    }

    /** Four wavefronts, each issuing every address of @p addrs. */
    static wl::Workgroup
    workgroupOf(const std::vector<Addr> &addrs)
    {
        wl::Workgroup wg;
        for (unsigned wf = 0; wf < 4; ++wf) {
            wl::WavefrontTrace trace;
            for (const Addr a : addrs)
                trace.ops.push_back(wl::MemOp{a, 3, false});
            wg.wavefronts.push_back(std::move(trace));
        }
        return wg;
    }

    /** Run @p wg to retirement on GPU 1, CU 0. */
    void
    run(wl::Workgroup wg)
    {
        bool retired = false;
        system.gpu(0).cu(0).startWorkgroup(std::move(wg),
                                           [&retired] { retired = true; });
        system.engine().run();
        ASSERT_TRUE(retired);
    }
};

} // namespace

TEST(Allocations, WarmAccessPathsAllocateNothing)
{
    AccessRig rig;
    gpu::Gpu &gpu1 = rig.system.gpu(0);
    gpu::Gpu &gpu2 = rig.system.gpu(1);
    xlat::Iommu &iommu = rig.system.iommu();
    const std::vector<PageId> local_page = {kLocalPage};

    struct Case
    {
        const char *name;
        std::vector<Addr> addrs;
        /** A counter that this kind of access moves. */
        std::function<std::uint64_t()> witness;
        /** Runs before each round, outside the count. */
        std::function<void()> prepare = [] {};
    };
    const std::vector<Case> cases = {
        {"local hit",
         {lineOf(kLocalPage, 0), lineOf(kLocalPage, 1)},
         [&] { return gpu1.l1Cache(0).hits; }},
        {"local miss",
         {lineOf(kLocalPage, 32), lineOf(kLocalPage, 33)},
         [&] { return gpu1.dram().reads; },
         [&] { gpu1.flushCachesForPages(local_page); }},
        {"GPU-owner DCA",
         {lineOf(kRemotePage, 0), lineOf(kRemotePage, 40)},
         [&] { return gpu2.rdma().readsServed; }},
        {"CPU-owner DCA",
         {lineOf(kCpuPage, 0), lineOf(kCpuPage, 40)},
         [&] { return iommu.fallbackRedirects; }},
        {"IOMMU round trip",
         {lineOf(kRemotePage, 1)},
         [&] { return iommu.iotlbHits; }},
    };

    // Warm up on one round of the same accesses: translations,
    // counters, data-phase and walk-waiter entries, the record free
    // list, and the event queue's slot slab, which from then on
    // recycles its slots through the free list.
    for (const Case &c : cases) {
        c.prepare();
        rig.run(AccessRig::workgroupOf(c.addrs));
    }

    for (const Case &c : cases) {
        c.prepare();
        wl::Workgroup wg = AccessRig::workgroupOf(c.addrs);
        const std::uint64_t witness_before = c.witness();
        const std::uint64_t issued_before = gpu1.cu(0).opsIssued;
        const std::uint64_t allocs =
            allocationsDuring([&] { rig.run(std::move(wg)); });
        EXPECT_EQ(allocs, 0u) << c.name;
        EXPECT_EQ(gpu1.cu(0).opsIssued - issued_before, 4 * c.addrs.size())
            << c.name;
        EXPECT_GT(c.witness(), witness_before) << c.name;
    }
}

namespace {

/** Allocations per access over one whole run() of @p app. */
double
allocationsPerAccess(const char *app, unsigned scale_div, bool griffin)
{
    wl::WorkloadConfig wcfg;
    wcfg.scaleDiv = scale_div;
    wcfg.seed = 42;
    auto workload = wl::makeWorkload(app, wcfg);
    sys::MultiGpuSystem system(griffin
                                   ? sys::SystemConfig::griffinDefault()
                                   : sys::SystemConfig::baseline());
    sys::RunResult result;
    const std::uint64_t allocs =
        allocationsDuring([&] { result = system.run(*workload); });
    const std::uint64_t accesses =
        result.localAccesses + result.remoteAccesses;
    std::printf("%s/%s scale %u: %llu allocations, %llu accesses\n", app,
                griffin ? "griffin" : "first-touch", scale_div,
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(accesses));
    return accesses ? double(allocs) / double(accesses) : 0.0;
}

} // namespace

TEST(Allocations, WholeRunsStayUnderOnePerAccess)
{
    EXPECT_LT(allocationsPerAccess("SC", 64, false), 1.0);
    EXPECT_LT(allocationsPerAccess("FIR", 8, true), 1.0);
}
