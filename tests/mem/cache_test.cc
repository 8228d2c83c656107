/**
 * @file
 * Unit and property tests for mem::Cache: hit/miss behaviour, LRU
 * replacement, write-back semantics, and the selective page flush
 * that the migration machinery depends on; differential tests against
 * an array-of-structs reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <tuple>
#include <vector>

#include "src/mem/cache.hh"
#include "src/sim/rng.hh"

using namespace griffin;
using mem::Cache;
using mem::CacheConfig;

namespace {

CacheConfig
tinyConfig()
{
    // 4 sets x 2 ways x 64 B lines.
    return CacheConfig{512, 2, 64, 1};
}

} // namespace

TEST(Cache, GeometryDerivedFromConfig)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.numSets(), 4u);
    Cache big(CacheConfig{2 * 1024 * 1024, 16, 64, 20});
    EXPECT_EQ(big.numSets(), 2048u);
    EXPECT_EQ(big.latency(), 20u);
}

TEST(Cache, FirstAccessMissesSecondHits)
{
    Cache c(tinyConfig());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
}

TEST(Cache, SameLineDifferentOffsetHits)
{
    Cache c(tinyConfig());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x103F, false).hit);
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyConfig()); // 2 ways
    // Three lines mapping to the same set (stride = sets * line).
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);    // a most recent
    c.access(d, false);    // evicts b
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c(tinyConfig());
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, false);
    c.access(b, false);
    const auto r = c.access(d, false);
    EXPECT_FALSE(r.writeback);
    EXPECT_EQ(c.writebacks, 0u);
}

TEST(Cache, DirtyEvictionReportsWritebackAddress)
{
    Cache c(tinyConfig());
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, true); // dirty
    c.access(b, false);
    const auto r = c.access(d, false); // evicts a
    EXPECT_TRUE(r.writeback);
    EXPECT_EQ(r.writebackAddr, a);
    EXPECT_EQ(c.writebacks, 1u);
}

TEST(Cache, ReadAfterWriteKeepsLineDirty)
{
    Cache c(tinyConfig());
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, true);
    c.access(a, false); // read does not clean it
    c.access(b, false);
    EXPECT_TRUE(c.access(d, false).writeback);
}

TEST(Cache, ProbeDoesNotPerturbLru)
{
    Cache c(tinyConfig());
    const Addr a = 0x0000, b = 0x0400, d = 0x0800;
    c.access(a, false);
    c.access(b, false);
    // Probing a must NOT make it most-recent.
    EXPECT_TRUE(c.probe(a));
    c.access(d, false); // evicts a (still LRU)
    EXPECT_FALSE(c.probe(a));
}

TEST(Cache, FlushAllInvalidatesAndCountsDirty)
{
    Cache c(tinyConfig());
    // Three different sets: nothing evicts before the flush.
    c.access(0x0000, true);
    c.access(0x0040, false);
    c.access(0x0080, true);
    const auto r = c.flushAll();
    EXPECT_EQ(r.linesInvalidated, 3u);
    EXPECT_EQ(r.dirtyWritebacks, 2u);
    EXPECT_EQ(c.validLines(), 0u);
}

TEST(Cache, FlushPagesIsSelective)
{
    Cache c(CacheConfig{16 * 1024, 4, 64, 1});
    // Lines in pages 0, 1 and 5 (4 KB pages).
    c.access(0x0000, true);
    c.access(0x0040, false);
    c.access(0x1000, true);
    c.access(0x5000, false);

    const std::vector<PageId> pages{0, 5};
    const auto r = c.flushPages(pages, 12);
    EXPECT_EQ(r.linesInvalidated, 3u);
    EXPECT_EQ(r.dirtyWritebacks, 1u);
    EXPECT_FALSE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x5000));
    EXPECT_TRUE(c.probe(0x1000)); // page 1 untouched
}

TEST(Cache, FlushPagesOnEmptySetIsNoop)
{
    Cache c(tinyConfig());
    c.access(0x0000, true);
    const auto r = c.flushPages({}, 12);
    EXPECT_EQ(r.linesInvalidated, 0u);
    EXPECT_TRUE(c.probe(0x0000));
}

TEST(Cache, ValidLinesNeverExceedsCapacity)
{
    Cache c(tinyConfig()); // 8 lines
    sim::Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        c.access(rng.nextBelow(1 << 20) * 64, rng.chance(0.5));
    EXPECT_LE(c.validLines(), 8u);
    EXPECT_EQ(c.hits + c.misses, 1000u);
}

/** Property sweep over geometries. */
class CacheGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheGeometry, WorkingSetSmallerThanCacheAlwaysHitsAfterWarmup)
{
    const auto [size_kb, assoc] = GetParam();
    Cache c(CacheConfig{std::uint64_t(size_kb) * 1024, unsigned(assoc),
                        64, 1});
    const std::uint64_t lines = std::uint64_t(size_kb) * 1024 / 64;
    // Warm up with half the capacity (conflicts cannot evict within
    // a strided working set that maps one line per set per way used).
    const std::uint64_t ws = lines / 2;
    for (std::uint64_t i = 0; i < ws; ++i)
        c.access(i * 64, false);
    c.hits = c.misses = 0;
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t i = 0; i < ws; ++i)
            c.access(i * 64, false);
    }
    EXPECT_EQ(c.misses, 0u);
    EXPECT_EQ(c.hits, ws * 3);
}

TEST_P(CacheGeometry, StreamLargerThanCacheAlwaysMisses)
{
    const auto [size_kb, assoc] = GetParam();
    Cache c(CacheConfig{std::uint64_t(size_kb) * 1024, unsigned(assoc),
                        64, 1});
    const std::uint64_t lines = std::uint64_t(size_kb) * 1024 / 64;
    for (int round = 0; round < 2; ++round) {
        for (std::uint64_t i = 0; i < lines * 4; ++i)
            c.access(i * 64, false);
    }
    EXPECT_EQ(c.hits, 0u); // pure streaming: LRU keeps nothing useful
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::make_tuple(16, 4), std::make_tuple(16, 1),
                      std::make_tuple(64, 8), std::make_tuple(256, 16)));

// ---------------------------------------------------------------------
// Differential tests against the array-of-structs reference model
// ---------------------------------------------------------------------

namespace {

/**
 * The original array-of-structs cache: a valid bit per line, and a
 * flushPages() that walks every line. Kept here as the reference the
 * packed-way implementation must match step for step.
 */
class RefCache
{
  public:
    struct Access
    {
        Cache::AccessResult result;
        /** A valid line was evicted; its byte address is victimAddr. */
        bool evicted = false;
        Addr victimAddr = 0;
    };

    explicit RefCache(const CacheConfig &config) : _config(config)
    {
        _lineShift = unsigned(std::countr_zero(config.lineBytes));
        _numSets = unsigned(config.sizeBytes /
                            (std::uint64_t(config.lineBytes) * config.assoc));
        _lines.resize(std::size_t(_numSets) * config.assoc);
    }

    Access
    access(Addr addr, bool is_write)
    {
        Access out;
        ++_useClock;
        if (Line *line = findLine(addr)) {
            ++hits;
            line->lastUse = _useClock;
            line->dirty = line->dirty || is_write;
            out.result.hit = true;
            return out;
        }
        ++misses;
        Line *set = &_lines[std::size_t(setIndex(addr)) * _config.assoc];
        Line *victim = &set[0];
        for (unsigned way = 0; way < _config.assoc; ++way) {
            if (!set[way].valid) {
                victim = &set[way];
                break;
            }
            if (set[way].lastUse < victim->lastUse)
                victim = &set[way];
        }
        if (victim->valid) {
            ++evictions;
            out.evicted = true;
            out.victimAddr = victim->tag << _lineShift;
            if (victim->dirty) {
                ++writebacks;
                out.result.writeback = true;
                out.result.writebackAddr = victim->tag << _lineShift;
            }
        }
        victim->tag = addr >> _lineShift;
        victim->valid = true;
        victim->dirty = is_write;
        victim->lastUse = _useClock;
        return out;
    }

    bool probe(Addr addr) { return findLine(addr) != nullptr; }

    Cache::FlushResult
    flushPages(const std::vector<PageId> &pages, unsigned page_shift)
    {
        Cache::FlushResult result;
        const unsigned page_line_shift = page_shift - _lineShift;
        for (Line &line : _lines) {
            if (!line.valid)
                continue;
            const PageId page = line.tag >> page_line_shift;
            if (!std::binary_search(pages.begin(), pages.end(), page))
                continue;
            line.valid = false;
            ++result.linesInvalidated;
            if (line.dirty) {
                ++result.dirtyWritebacks;
                ++writebacks;
                line.dirty = false;
            }
        }
        return result;
    }

    Cache::FlushResult
    flushAll()
    {
        Cache::FlushResult result;
        for (Line &line : _lines) {
            if (!line.valid)
                continue;
            line.valid = false;
            ++result.linesInvalidated;
            if (line.dirty) {
                ++result.dirtyWritebacks;
                ++writebacks;
                line.dirty = false;
            }
        }
        return result;
    }

    std::uint64_t
    validLines() const
    {
        std::uint64_t count = 0;
        for (const Line &line : _lines)
            count += line.valid ? 1 : 0;
        return count;
    }

    std::uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    CacheConfig _config;
    unsigned _numSets;
    unsigned _lineShift;
    std::vector<Line> _lines;
    std::uint64_t _useClock = 0;

    unsigned
    setIndex(Addr addr) const
    {
        return unsigned((addr >> _lineShift) % _numSets);
    }

    Line *
    findLine(Addr addr)
    {
        const Addr tag = addr >> _lineShift;
        Line *set = &_lines[std::size_t(setIndex(addr)) * _config.assoc];
        for (unsigned way = 0; way < _config.assoc; ++way) {
            if (set[way].valid && set[way].tag == tag)
                return &set[way];
        }
        return nullptr;
    }
};

/**
 * Drives a Cache and a RefCache through one seeded random sequence of
 * accesses, probes, page flushes and full flushes, asserting after
 * every step that both agree.
 *
 * Addresses come from two pools: a conflict pool of 2 x assoc tags in
 * each of a few sets (evictions, LRU order, dirty writebacks), and a
 * dense pool of whole pages (page flushes that hit resident lines).
 */
class CacheDiff
{
  public:
    CacheDiff(const CacheConfig &config, unsigned page_shift,
              std::uint64_t seed)
        : _dut(config), _ref(config), _rng(seed), _pageShift(page_shift),
          _lineShift(unsigned(std::countr_zero(config.lineBytes))),
          _linesPerPage(std::uint64_t(1) << (page_shift - _lineShift))
    {
        for (int i = 0; i < 3; ++i)
            _hotSets.push_back(_rng.nextBelow(_dut.numSets()));
    }

    Addr
    randomAddr()
    {
        const std::uint64_t line =
            _rng.chance(0.5)
                ? _rng.nextBelow(2 * _dut.config().assoc) *
                          _dut.numSets() +
                      _hotSets[_rng.nextBelow(_hotSets.size())]
                : _rng.nextBelow(8 * _linesPerPage);
        return (line << _lineShift) + _rng.nextBelow(1u << _lineShift);
    }

    PageId
    randomPage()
    {
        // Mostly pages that may hold resident lines; sometimes one far
        // away that holds none.
        if (_rng.chance(0.1))
            return (PageId(1) << 30) + _rng.nextBelow(1000);
        return PageId(randomAddr() >> _pageShift);
    }

    void
    access()
    {
        const Addr addr = randomAddr();
        const bool is_write = _rng.chance(0.4);
        const auto got = _dut.access(addr, is_write);
        const auto want = _ref.access(addr, is_write);
        ASSERT_EQ(got.hit, want.result.hit) << "addr " << addr;
        ASSERT_EQ(got.writeback, want.result.writeback) << "addr " << addr;
        ASSERT_EQ(got.writebackAddr, want.result.writebackAddr);
        // Same victim: the line the reference evicted is gone here too.
        if (want.evicted) {
            ASSERT_FALSE(_dut.probe(want.victimAddr));
        }
        ASSERT_TRUE(_dut.probe(addr));
    }

    void
    flushPages(std::vector<PageId> pages)
    {
        std::sort(pages.begin(), pages.end());
        const auto got = _dut.flushPages(pages, _pageShift);
        const auto want = _ref.flushPages(pages, _pageShift);
        ASSERT_EQ(got.linesInvalidated, want.linesInvalidated);
        ASSERT_EQ(got.dirtyWritebacks, want.dirtyWritebacks);
        for (const PageId page : pages) {
            for (std::uint64_t l = 0; l < _linesPerPage; ++l) {
                ASSERT_FALSE(_dut.probe(
                    ((page << (_pageShift - _lineShift)) + l)
                    << _lineShift));
            }
        }
    }

    std::vector<PageId>
    randomPages(std::size_t n)
    {
        std::vector<PageId> pages;
        for (std::size_t i = 0; i < n; ++i)
            pages.push_back(randomPage());
        if (!pages.empty() && _rng.chance(0.3))
            pages.push_back(pages[_rng.nextBelow(pages.size())]);
        return pages;
    }

    void
    step()
    {
        const double r = _rng.nextDouble();
        if (r < 0.85) {
            access();
        } else if (r < 0.90) {
            const Addr addr = randomAddr();
            ASSERT_EQ(_dut.probe(addr), _ref.probe(addr));
        } else if (r < 0.999) {
            flushPages(randomPages(_rng.nextBelow(6)));
        } else {
            const auto got = _dut.flushAll();
            const auto want = _ref.flushAll();
            ASSERT_EQ(got.linesInvalidated, want.linesInvalidated);
            ASSERT_EQ(got.dirtyWritebacks, want.dirtyWritebacks);
        }
        // validLines() walks every way, which dominates the sanitizer
        // job on the 32k-way L2: there, count every 64th step (each
        // flush's FlushResult already pins its change to the count);
        // everywhere else after every step.
        ++_steps;
        if (_dut.numSets() * _dut.config().assoc <= 4096 ||
            _steps % 64 == 0) {
            check();
        } else {
            checkCounters();
        }
    }

    void
    checkCounters()
    {
        ASSERT_EQ(_dut.hits, _ref.hits);
        ASSERT_EQ(_dut.misses, _ref.misses);
        ASSERT_EQ(_dut.evictions, _ref.evictions);
        ASSERT_EQ(_dut.writebacks, _ref.writebacks);
    }

    /** Counters plus the valid-line count. */
    void
    check()
    {
        checkCounters();
        ASSERT_EQ(_dut.validLines(), _ref.validLines());
    }

    Cache &dut() { return _dut; }
    std::uint64_t linesPerPage() const { return _linesPerPage; }

  private:
    Cache _dut;
    RefCache _ref;
    sim::Rng _rng;
    unsigned _pageShift;
    unsigned _lineShift;
    std::uint64_t _linesPerPage;
    std::vector<std::uint64_t> _hotSets;
    std::uint64_t _steps = 0;
};

const CacheConfig paperL1{16 * 1024, 4, 64, 1};
const CacheConfig paperL2{2 * 1024 * 1024, 16, 64, 20};
/** 96 sets: a 4 KB page's 64 lines can wrap past the last set. */
const CacheConfig oddSets{24 * 1024, 4, 64, 1};

} // namespace

/**
 * (geometry: 0 = L1 16 KB/4-way, 1 = L2 2 MB/16-way, 2 = 24 KB/4-way
 * with 96 sets; page shift).
 */
class CacheDifferential
    : public ::testing::TestWithParam<std::tuple<int, unsigned>>
{
};

TEST_P(CacheDifferential, RandomSequencesMatchReference)
{
    const auto [geometry, page_shift] = GetParam();
    const CacheConfig config =
        geometry == 0 ? paperL1 : geometry == 1 ? paperL2 : oddSets;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        CacheDiff diff(config, page_shift, seed);
        for (int i = 0; i < 1500; ++i) {
            diff.step();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        // The sequence exercised hits, LRU evictions and writebacks.
        EXPECT_GT(diff.dut().hits, 0u);
        EXPECT_GT(diff.dut().evictions, 0u);
        EXPECT_GT(diff.dut().writebacks, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(12u, 16u)));

TEST(CacheDifferential, FlushPagesEdgeCases)
{
    // L2 with 4 KB pages: fewer than 32 pages take the probe path,
    // 32 or more cover every set and take the scan path.
    CacheDiff diff(paperL2, 12, 9);
    const auto warm = [&] {
        for (int i = 0; i < 3000; ++i)
            diff.access();
    };
    warm();
    ASSERT_LT(diff.linesPerPage(), diff.dut().numSets());

    diff.flushPages({}); // empty list
    diff.check();

    diff.flushPages({0, 0, 1, 1}); // duplicates, probe path
    diff.check();

    // Pages with no resident lines.
    diff.flushPages({PageId(1) << 30, (PageId(1) << 30) + 7});
    diff.check();

    // Sparse pages on the probe path, after re-warming.
    warm();
    diff.flushPages(diff.randomPages(5));
    diff.check();

    // A page set covering every set: the scan path.
    warm();
    const std::uint64_t cover =
        diff.dut().numSets() / diff.linesPerPage();
    std::vector<PageId> pages;
    for (PageId p = 0; p < cover + 3; ++p)
        pages.push_back(p);
    pages.push_back(2); // duplicate on the scan path too
    diff.flushPages(pages);
    diff.check();
}

TEST(CacheDifferential, SinglePageCoversEveryL1Set)
{
    // 64 lines per 4 KB page on a 64-set L1: even one page takes the
    // scan path; with 64 KB pages the same holds at 1024 lines/page.
    for (const unsigned shift : {12u, 16u}) {
        CacheDiff diff(paperL1, shift, 21);
        ASSERT_GE(diff.linesPerPage(), diff.dut().numSets());
        for (int i = 0; i < 2000; ++i)
            diff.access();
        diff.flushPages({0});
        diff.flushPages(diff.randomPages(3));
        diff.check();
    }
}
