/**
 * @file
 * A set-associative, write-back, write-allocate cache tag model.
 *
 * The model tracks tags, valid and dirty bits only (no data): the
 * simulator is trace-driven, so timing and traffic are what matter.
 * Selective per-page flushing is a first-class operation because both
 * the baseline migration path and Griffin's ACUD need to purge exactly
 * the lines of the pages being migrated (paper SS III-D).
 */

#ifndef GRIFFIN_MEM_CACHE_HH
#define GRIFFIN_MEM_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/types.hh"

namespace griffin::mem {

/** Geometry and latency of one cache. */
struct CacheConfig
{
    std::uint64_t sizeBytes = 16 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    /** Hit latency in cycles; the owner adds miss latencies itself. */
    Tick latency = 1;
};

/**
 * Tag-only cache with true-LRU replacement within each set.
 */
class Cache
{
  public:
    /** Result of a single access. */
    struct AccessResult
    {
        bool hit = false;
        /** A dirty line was evicted; its address is writebackAddr. */
        bool writeback = false;
        Addr writebackAddr = 0;
    };

    /** Result of a flush operation. */
    struct FlushResult
    {
        std::uint64_t linesInvalidated = 0;
        std::uint64_t dirtyWritebacks = 0;
    };

    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return _config; }
    unsigned numSets() const { return _numSets; }
    Tick latency() const { return _config.latency; }

    /**
     * Access the line containing @p addr; a miss allocates the line
     * (write-allocate) and may evict a victim.
     */
    AccessResult access(Addr addr, bool is_write);

    /** Check residency without touching LRU state. */
    bool probe(Addr addr) const;

    /**
     * Invalidate all lines belonging to the given (sorted) pages.
     *
     * When pages x lines/page < numSets, each line of each page is
     * probed through its set: O(pages x lines/page x assoc). Otherwise
     * the pages reach every set and one O(lines) pass over the tags is
     * no dearer.
     */
    FlushResult flushPages(const std::vector<PageId> &pages,
                           unsigned page_shift);

    /** Invalidate everything (baseline full-flush path). */
    FlushResult flushAll();

    /** Currently valid line count (for tests). */
    std::uint64_t validLines() const;

    /** @name Statistics @{ */
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    /** @} */

  private:
    /** Tag of an invalid way; no line address can take this value. */
    static constexpr Addr invalidTag = ~Addr(0);
    /** findWay() result when the line is not resident. */
    static constexpr std::size_t noWay = ~std::size_t(0);

    CacheConfig _config;
    unsigned _numSets;
    unsigned _lineShift;
    /**
     * Way arrays, numSets * assoc each, set-major. Lookups scan only
     * _tags; _lastUse and _dirty are touched on a hit or a fill.
     */
    std::vector<Addr> _tags;
    std::vector<std::uint64_t> _lastUse;
    std::vector<std::uint8_t> _dirty;
    std::uint64_t _useClock = 0;

    Addr lineAddr(Addr addr) const { return addr >> _lineShift; }
    /** Index of way 0 of the set holding line address @p line. */
    std::size_t setBase(Addr line) const
    {
        return std::size_t(line % _numSets) * _config.assoc;
    }
    /** Way index of @p line in the set starting at @p base, or noWay. */
    std::size_t findWay(Addr line, std::size_t base) const;
    /** Invalidate resident way @p way, counting it into @p result. */
    void invalidateWay(std::size_t way, FlushResult &result);
};

} // namespace griffin::mem

#endif // GRIFFIN_MEM_CACHE_HH
