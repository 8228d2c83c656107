/**
 * @file
 * The IOMMU: the CPU-side translation agent every GPU L2-TLB miss is
 * forwarded to (paper SS II-B, Figures 3-5).
 *
 * It owns a pool of multi-threaded page table walkers (8 in the
 * paper's configuration), an IOTLB that short-circuits walks for
 * GPU-resident pages, and the fault path: walks that resolve to a
 * CPU-resident page are handed to the installed MigrationPolicy,
 * which either triggers demand paging (the request parks until the
 * driver completes the migration) or redirects the access to CPU
 * memory via DCA.
 *
 * CPU-resident pages are deliberately *not* cached in the IOTLB: the
 * policy must observe every access to them, which is how DFTM detects
 * the second touch (SS III-A).
 *
 * Requests are the requester's own records (XlatRequest), held by
 * pointer from arrival to reply: a translation round trip allocates
 * nothing in the IOMMU.
 */

#ifndef GRIFFIN_XLAT_IOMMU_HH
#define GRIFFIN_XLAT_IOMMU_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/core/migration_policy.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/page_table.hh"
#include "src/sim/engine.hh"
#include "src/sim/types.hh"
#include "src/xlat/fault_handler.hh"
#include "src/xlat/tlb.hh"

namespace griffin::sys {
class FaultInjector;
} // namespace griffin::sys

namespace griffin::xlat {

/** IOMMU parameters (paper Table II: 8 page table walkers). */
struct IommuConfig
{
    unsigned numWalkers = 8;
    /** Full four-level walk out of CPU caches/DRAM. */
    Tick walkLatency = 300;
    TlbConfig iotlb{256, 16, 8};
};

/** Answer to a translation request. */
struct XlatReply
{
    DeviceId location = cpuDeviceId;
    /** May the GPU cache this translation in its TLBs? */
    bool cacheable = false;
};

struct XlatRequest;

/**
 * The requester side of translation: receives each reply when it
 * lands back at the requesting device. Implemented by gpu::Gpu.
 */
class XlatClient
{
  public:
    virtual ~XlatClient() = default;

    /** @p req's answer, in req.reply, has crossed the fabric. */
    virtual void onXlatReply(XlatRequest &req) = 0;
};

/**
 * One translation request. The requester owns it and keeps it alive
 * until the reply lands; the IOMMU holds it by pointer the whole way
 * (IOTLB probe, walk queue, coalescing, parking behind a migration)
 * and hands the same pointer back in XlatClient::onXlatReply(). A GPU
 * embeds this in its per-access record, so a translation round trip
 * allocates nothing.
 */
struct XlatRequest
{
    /** Receives the reply at the requester. */
    XlatClient *client = nullptr;
    DeviceId requester = 0;
    PageId page = 0;
    bool isWrite = false;
    /**
     * Requester-side TLB-miss time, the span origin if this request
     * turns into a page fault; maxTick means arrival at the IOMMU.
     */
    Tick origin = maxTick;

    /** @name Written by the IOMMU @{ */
    /** When a walker picked this page up / finished the walk. */
    Tick walkStart = 0;
    Tick walkEnd = 0;
    /** Span identity, allocated only if a fault is raised. */
    FaultId fid = invalidFaultId;
    XlatReply reply;
    /** Link in the IOMMU's walk-waiter and parked lists. */
    XlatRequest *next = nullptr;
    /** @} */
};

/**
 * The IOMMU model.
 */
class Iommu
{
  public:
    Iommu(sim::Engine &engine, ic::Network &network, mem::PageTable &pt,
          const IommuConfig &config);

    /** Install the placement policy (required before requests). */
    void setPolicy(core::MigrationPolicy *policy) { _policy = policy; }

    /** Install the fault receiver (required before requests). */
    void setFaultHandler(FaultHandler *handler) { _faultHandler = handler; }

    /**
     * Attach a fault injector (nullptr detaches). When set, each page
     * table walk may stall for an extra fixed penalty.
     */
    void setFaultInjector(sys::FaultInjector *injector)
    {
        _injector = injector;
    }

    /**
     * @p req has arrived at the IOMMU (the requester already paid the
     * fabric crossing). The reply is sent back over the fabric and
     * req.client->onXlatReply(req) runs at the requester. The caller
     * sets client, requester, page, isWrite and origin; the IOMMU
     * resets the fields it writes.
     */
    void request(XlatRequest &req);

    /**
     * Mark @p page as under migration: new and parked requests wait
     * until onMigrationDone(). Also purges the IOTLB entry.
     */
    void blockPage(PageId page);

    /**
     * The driver finished migrating @p page (the page table already
     * points at the new location): replay parked requests.
     */
    void onMigrationDone(PageId page);

    /** Drop a (possibly stale) IOTLB entry for @p page. */
    void invalidateIotlb(PageId page) { _iotlb.invalidatePage(page); }

    /**
     * True from the moment @p page is selected for migration until
     * the transfer commits (migrationPending covers selection to
     * shootdown, migrating covers shootdown to commit). GPUs consult
     * this before caching a translation reply: a reply that was in
     * flight when the migration's TLB purge ran would otherwise
     * re-fill the TLB with the old location after the purge — the
     * reply fence real shootdown protocols require.
     */
    bool
    pageMigrating(PageId page) const
    {
        const mem::PageInfo &pi = _pageTable.info(page);
        return pi.migrating || pi.migrationPending;
    }

    /**
     * Cache a CPU-resident translation in the IOTLB. Normally the
     * IOMMU refuses to do this so the policy observes every touch of
     * a CPU page; DFTM uses it during a denial lease so the first
     * sweep streams via DCA without walking per access. The policy
     * must invalidate the entry when the lease expires.
     */
    void cacheCpuResident(PageId page) { _iotlb.fill(page, cpuDeviceId); }

    const Tlb &iotlb() const { return _iotlb; }

    /** Pending + in-service walk count (for CPMS batching heuristics). */
    unsigned
    activeWalks() const
    {
        return _busyWalkers + unsigned(_walkQueue.size() - _walkHead);
    }

    /** Walkers currently in a walk (occupancy probe). */
    unsigned busyWalkers() const { return _busyWalkers; }

    /** Requests parked behind in-flight migrations (watchdog probe). */
    std::size_t parkedCount() const { return _parkedNow; }

    const IommuConfig &config() const { return _config; }

    /** @name Statistics @{ */
    std::uint64_t requests = 0;
    std::uint64_t iotlbHits = 0;
    std::uint64_t walks = 0;
    std::uint64_t walksCoalesced = 0; ///< joined an in-flight walk
    std::uint64_t faultsRaised = 0;
    std::uint64_t dcaRedirects = 0;     ///< CPU-resident, served remotely
    std::uint64_t parkedRequests = 0;   ///< waited on an ongoing migration
    std::uint64_t walksStalled = 0;     ///< injected walker stalls
    std::uint64_t fallbackRedirects = 0; ///< served via dcaFallback pages
    /** @} */

  private:
    /** FIFO of requests linked through XlatRequest::next. */
    struct RequestList
    {
        XlatRequest *head = nullptr;
        XlatRequest *tail = nullptr;

        bool empty() const { return head == nullptr; }
        void push(XlatRequest &req);
        /** Detach the whole list; returns its head. */
        XlatRequest *take();
    };

    sim::Engine &_engine;
    ic::Network &_network;
    mem::PageTable &_pageTable;
    IommuConfig _config;
    Tlb _iotlb;

    core::MigrationPolicy *_policy = nullptr;
    FaultHandler *_faultHandler = nullptr;
    sys::FaultInjector *_injector = nullptr;

    /**
     * Pages queued for a walk, FCFS, consumed from _walkHead; the
     * storage is reused once the queue drains.
     */
    std::vector<PageId> _walkQueue;
    std::size_t _walkHead = 0;
    /**
     * Requests waiting on a queued or in-flight walk, per page. An
     * entry outlives its walk (an empty list means no walk pending),
     * so a steady stream of walks allocates nothing.
     */
    std::unordered_map<PageId, RequestList> _walkWaiters;
    unsigned _busyWalkers = 0;
    /** Requests parked behind an in-flight migration, per page. */
    std::unordered_map<PageId, RequestList> _parked;
    std::size_t _parkedNow = 0;

    void lookup(XlatRequest &req);
    void startWalks();
    void finishWalk(PageId page);
    void resolve(XlatRequest &req);
    void reply(XlatRequest &req, XlatReply rep);
};

} // namespace griffin::xlat

#endif // GRIFFIN_XLAT_IOMMU_HH
