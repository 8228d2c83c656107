/**
 * @file
 * The OS-level page table shared by the CPU and all GPUs.
 *
 * This is the single source of truth for where every unified-memory
 * page currently lives. The IOMMU consults it on every walk; the
 * driver mutates it when pages migrate. It also carries the one extra
 * bit per page that Griffin's Delayed First-Touch Migration needs
 * (paper SS V, "Hardware Cost").
 */

#ifndef GRIFFIN_MEM_PAGE_TABLE_HH
#define GRIFFIN_MEM_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/obs/context.hh"
#include "src/sim/types.hh"

namespace griffin::mem {

/** Per-page metadata tracked by the OS / driver. */
struct PageInfo
{
    /** Device currently holding the page (CPU at allocation). */
    DeviceId location = cpuDeviceId;

    /**
     * DFTM's "accessed once" bit: set when a GPU's first touch was
     * denied migration; a second GPU touch then forces the migration.
     */
    bool touched = false;

    /** Set while a migration of this page is in flight. */
    bool migrating = false;

    /**
     * Set from the moment the DPC selects the page until the
     * migration completes. Unlike migrating, a pending page is still
     * fully serviceable — the flag only stops the DPC from selecting
     * it twice.
     */
    bool migrationPending = false;

    /**
     * The baseline first-touch policy pins a page on the GPU after the
     * initial CPU->GPU migration; pinned pages never move again.
     */
    bool pinned = false;

    /**
     * Set when a migration of this page was aborted by a recovery
     * timeout (chaos layer): the page stays CPU-resident and is served
     * via DCA remote access for the rest of the run, so a re-fault
     * loop cannot form.
     */
    bool dcaFallback = false;
};

/**
 * Global page table.
 *
 * Pages are keyed by virtual page number. Pages spring into existence
 * CPU-resident on first reference, mirroring unified memory where the
 * CPU backs all allocations until a device touches them.
 */
class PageTable
{
  public:
    /**
     * @param page_shift  log2 of the page size (12 -> 4 KB).
     * @param num_devices device count including the CPU (device 0).
     * @param obs the owning engine's telemetry context (every commit
     *        is recorded into its page stats), or null.
     */
    explicit PageTable(unsigned page_shift = 12, unsigned num_devices = 5,
                       const obs::Context *obs = nullptr);

    unsigned pageShift() const { return _pageShift; }
    std::uint64_t pageBytes() const { return std::uint64_t(1) << _pageShift; }

    /** Virtual page number containing @p addr. */
    PageId pageOf(Addr addr) const { return addr >> _pageShift; }

    /** First byte address of page @p page. */
    Addr baseOf(PageId page) const { return Addr(page) << _pageShift; }

    /** Metadata for @p page, creating a CPU-resident entry on demand. */
    PageInfo &info(PageId page);

    /** Read-only metadata; a page never referenced reads CPU-resident. */
    const PageInfo &info(PageId page) const;

    /** Where @p page currently lives. */
    DeviceId locationOf(PageId page) const { return info(page).location; }

    /**
     * Move @p page to @p dst, updating per-device residency counts.
     * Clears the migrating flag.
     */
    void setLocation(PageId page, DeviceId dst);

    /** Number of pages currently resident on @p dev. */
    std::uint64_t residentPages(DeviceId dev) const;

    /** Number of pages the table has ever seen. */
    std::uint64_t totalPages() const { return _pages.size(); }

    /**
     * Occupancy of @p gpu as defined by the paper's DFTM: the ratio of
     * pages resident on that GPU to pages resident on all GPUs
     * combined. Returns 0 when no GPU holds any page.
     */
    double gpuOccupancy(DeviceId gpu) const;

    /**
     * True if @p gpu holds at least as many pages as every other GPU
     * (the DFTM "highest occupancy" test; ties count as highest).
     */
    bool hasHighestOccupancy(DeviceId gpu) const;

    unsigned numDevices() const { return unsigned(_resident.size()); }

    /** Total migrations recorded via setLocation(). */
    std::uint64_t migrations() const { return _migrations; }

    /** Every page ever referenced (invariant auditor). */
    const std::unordered_map<PageId, PageInfo> &pages() const
    {
        return _pages;
    }

  private:
    unsigned _pageShift;
    std::unordered_map<PageId, PageInfo> _pages;
    std::vector<std::uint64_t> _resident;
    std::uint64_t _migrations = 0;
    const obs::Context *_obs;

    static const PageInfo _defaultInfo;
};

} // namespace griffin::mem

#endif // GRIFFIN_MEM_PAGE_TABLE_HH
