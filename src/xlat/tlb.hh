/**
 * @file
 * A set-associative TLB model.
 *
 * Entries map a virtual page to the device whose memory holds it.
 * Per the paper (SS II-B), translations for *remote* physical addresses
 * are never cached in GPU TLBs, so the fill policy is the caller's
 * responsibility; this class provides selective invalidation because
 * Griffin's shootdowns only target the pages being migrated (SS IV).
 */

#ifndef GRIFFIN_XLAT_TLB_HH
#define GRIFFIN_XLAT_TLB_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "src/sim/types.hh"

namespace griffin::xlat {

/** TLB geometry and lookup latency. */
struct TlbConfig
{
    unsigned numSets = 1;
    unsigned assoc = 32;
    Tick latency = 1;
};

/**
 * One TLB (L1 per-CU, L2 per-GPU, or the IOMMU's IOTLB).
 */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &config);

    const TlbConfig &config() const { return _config; }
    Tick latency() const { return _config.latency; }
    unsigned capacity() const { return _config.numSets * _config.assoc; }

    /**
     * Look up @p page; updates LRU on a hit.
     * @return the cached owning device, or nullopt on a miss.
     */
    std::optional<DeviceId> lookup(PageId page);

    /** Check residency without perturbing LRU (for tests). */
    bool probe(PageId page) const;

    /** Insert (or refresh) a translation. */
    void fill(PageId page, DeviceId location);

    /**
     * Shoot down one page.
     * @retval true the page was resident (an entry was invalidated).
     */
    bool invalidatePage(PageId page);

    /** Shoot down everything (full-flush migration path). */
    std::uint64_t invalidateAll();

    /** Number of valid entries. */
    std::uint64_t validEntries() const;

    /**
     * Visit every valid entry (page, cached location) without
     * perturbing LRU. Used by the invariant auditor to cross-check
     * TLB contents against the page table.
     */
    void forEachValid(
        const std::function<void(PageId, DeviceId)> &visit) const;

    /** @name Statistics @{ */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t invalidations = 0;
    /** @} */

  private:
    /** Page of an invalid way; no translated page takes this value. */
    static constexpr PageId invalidPage = ~PageId(0);
    /** findWay() result when the page is not resident. */
    static constexpr std::size_t noWay = ~std::size_t(0);

    TlbConfig _config;
    /**
     * Way arrays, numSets * assoc each, set-major. Lookups scan only
     * _pages; _locations and _lastUse are touched on a hit or a fill.
     */
    std::vector<PageId> _pages;
    std::vector<DeviceId> _locations;
    std::vector<std::uint64_t> _lastUse;
    std::uint64_t _useClock = 0;

    /** Index of way 0 of @p page's set. */
    std::size_t setBase(PageId page) const
    {
        return std::size_t(page % _config.numSets) * _config.assoc;
    }
    /** Way index (into the way arrays) of @p page, or noWay. */
    std::size_t findWay(PageId page) const;
};

} // namespace griffin::xlat

#endif // GRIFFIN_XLAT_TLB_HH
