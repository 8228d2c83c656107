/**
 * @file
 * Unit tests for xlat::Tlb: lookup/fill, LRU within a set, selective
 * shootdown, and the translation payload (owning device); differential
 * tests against an array-of-structs reference model.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/rng.hh"
#include "src/xlat/tlb.hh"

using namespace griffin;
using xlat::Tlb;
using xlat::TlbConfig;

TEST(Tlb, MissThenHitWithLocation)
{
    Tlb tlb(TlbConfig{1, 32, 1});
    EXPECT_FALSE(tlb.lookup(10).has_value());
    tlb.fill(10, 3);
    const auto loc = tlb.lookup(10);
    ASSERT_TRUE(loc.has_value());
    EXPECT_EQ(*loc, 3u);
    EXPECT_EQ(tlb.hits, 1u);
    EXPECT_EQ(tlb.misses, 1u);
}

TEST(Tlb, RefillUpdatesLocation)
{
    Tlb tlb(TlbConfig{1, 32, 1});
    tlb.fill(10, 1);
    tlb.fill(10, 2);
    EXPECT_EQ(*tlb.lookup(10), 2u);
    EXPECT_EQ(tlb.validEntries(), 1u);
}

TEST(Tlb, CapacityAndLruEviction)
{
    Tlb tlb(TlbConfig{1, 4, 1}); // fully associative, 4 entries
    for (PageId p = 0; p < 4; ++p)
        tlb.fill(p, 1);
    tlb.lookup(0); // page 0 most recent
    tlb.fill(99, 1); // evicts page 1 (LRU)
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_FALSE(tlb.probe(1));
    EXPECT_TRUE(tlb.probe(99));
    EXPECT_EQ(tlb.validEntries(), 4u);
}

TEST(Tlb, SetIndexingSeparatesConflicts)
{
    Tlb tlb(TlbConfig{4, 1, 1}); // 4 sets, direct mapped
    tlb.fill(0, 1);
    tlb.fill(1, 1); // different set: no conflict
    EXPECT_TRUE(tlb.probe(0));
    EXPECT_TRUE(tlb.probe(1));
    tlb.fill(4, 1); // same set as page 0: evicts it
    EXPECT_FALSE(tlb.probe(0));
    EXPECT_TRUE(tlb.probe(4));
}

TEST(Tlb, InvalidatePageIsSelective)
{
    Tlb tlb(TlbConfig{1, 8, 1});
    tlb.fill(1, 1);
    tlb.fill(2, 1);
    EXPECT_TRUE(tlb.invalidatePage(1));
    EXPECT_FALSE(tlb.invalidatePage(1)); // already gone
    EXPECT_FALSE(tlb.probe(1));
    EXPECT_TRUE(tlb.probe(2));
    EXPECT_EQ(tlb.invalidations, 1u);
}

TEST(Tlb, InvalidateAllCountsEntries)
{
    Tlb tlb(TlbConfig{2, 4, 1});
    for (PageId p = 0; p < 6; ++p)
        tlb.fill(p, 1);
    EXPECT_EQ(tlb.invalidateAll(), 6u);
    EXPECT_EQ(tlb.validEntries(), 0u);
    EXPECT_FALSE(tlb.lookup(3).has_value());
}

TEST(Tlb, PaperL1Geometry)
{
    // Paper Table II: L1 TLB is 1 set, 32-way.
    Tlb tlb(TlbConfig{1, 32, 1});
    EXPECT_EQ(tlb.capacity(), 32u);
    for (PageId p = 0; p < 32; ++p)
        tlb.fill(p, 1);
    EXPECT_EQ(tlb.validEntries(), 32u);
    tlb.fill(32, 1);
    EXPECT_EQ(tlb.validEntries(), 32u); // capacity bound
}

TEST(Tlb, PaperL2Geometry)
{
    // Paper Table II: L2 TLB is 32 sets, 16-way.
    Tlb tlb(TlbConfig{32, 16, 10});
    EXPECT_EQ(tlb.capacity(), 512u);
    EXPECT_EQ(tlb.latency(), 10u);
}

// ---------------------------------------------------------------------
// Differential tests against the array-of-structs reference model
// ---------------------------------------------------------------------

namespace {

/**
 * The original array-of-structs TLB with a valid bit per entry, kept
 * as the reference the packed-way implementation must match.
 */
class RefTlb
{
  public:
    explicit RefTlb(const TlbConfig &config) : _config(config)
    {
        _entries.resize(std::size_t(config.numSets) * config.assoc);
    }

    std::optional<DeviceId>
    lookup(PageId page)
    {
        ++_useClock;
        if (Entry *entry = findEntry(page)) {
            ++hits;
            entry->lastUse = _useClock;
            return entry->location;
        }
        ++misses;
        return std::nullopt;
    }

    bool probe(PageId page) { return findEntry(page) != nullptr; }

    /** @return the page evicted to make room, if any. */
    std::optional<PageId>
    fill(PageId page, DeviceId location)
    {
        ++_useClock;
        ++fills;
        if (Entry *entry = findEntry(page)) {
            entry->location = location;
            entry->lastUse = _useClock;
            return std::nullopt;
        }
        Entry *set = &_entries[std::size_t(page % _config.numSets) *
                               _config.assoc];
        Entry *victim = &set[0];
        for (unsigned way = 0; way < _config.assoc; ++way) {
            if (!set[way].valid) {
                victim = &set[way];
                break;
            }
            if (set[way].lastUse < victim->lastUse)
                victim = &set[way];
        }
        std::optional<PageId> evicted;
        if (victim->valid)
            evicted = victim->page;
        victim->page = page;
        victim->location = location;
        victim->valid = true;
        victim->lastUse = _useClock;
        return evicted;
    }

    bool
    invalidatePage(PageId page)
    {
        if (Entry *entry = findEntry(page)) {
            entry->valid = false;
            ++invalidations;
            return true;
        }
        return false;
    }

    std::uint64_t
    invalidateAll()
    {
        std::uint64_t count = 0;
        for (Entry &entry : _entries) {
            if (entry.valid) {
                entry.valid = false;
                ++count;
            }
        }
        invalidations += count;
        return count;
    }

    std::uint64_t
    validEntries() const
    {
        std::uint64_t count = 0;
        for (const Entry &entry : _entries)
            count += entry.valid ? 1 : 0;
        return count;
    }

    std::vector<std::pair<PageId, DeviceId>>
    valid() const
    {
        std::vector<std::pair<PageId, DeviceId>> out;
        for (const Entry &entry : _entries)
            if (entry.valid)
                out.emplace_back(entry.page, entry.location);
        return out;
    }

    std::uint64_t hits = 0, misses = 0, fills = 0, invalidations = 0;

  private:
    struct Entry
    {
        PageId page = 0;
        DeviceId location = invalidDeviceId;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    TlbConfig _config;
    std::vector<Entry> _entries;
    std::uint64_t _useClock = 0;

    Entry *
    findEntry(PageId page)
    {
        Entry *set = &_entries[std::size_t(page % _config.numSets) *
                               _config.assoc];
        for (unsigned way = 0; way < _config.assoc; ++way) {
            if (set[way].valid && set[way].page == page)
                return &set[way];
        }
        return nullptr;
    }
};

std::vector<std::pair<PageId, DeviceId>>
validOf(const Tlb &tlb)
{
    std::vector<std::pair<PageId, DeviceId>> out;
    tlb.forEachValid([&](PageId page, DeviceId loc) {
        out.emplace_back(page, loc);
    });
    return out;
}

} // namespace

/** Paper geometries: L1 TLB 1x32, L2 TLB 32x16, IOTLB 256x16. */
class TlbDifferential : public ::testing::TestWithParam<TlbConfig>
{
};

TEST_P(TlbDifferential, RandomSequencesMatchReference)
{
    const TlbConfig config = GetParam();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Tlb dut(config);
        RefTlb ref(config);
        sim::Rng rng(seed);
        // Twice the capacity of pages keeps every set under pressure.
        const std::uint64_t pages = 2 * std::uint64_t(dut.capacity());
        for (int i = 0; i < 4000; ++i) {
            const PageId page = rng.nextBelow(pages);
            const double r = rng.nextDouble();
            if (r < 0.5) {
                ASSERT_EQ(dut.lookup(page), ref.lookup(page));
            } else if (r < 0.85) {
                const DeviceId loc = DeviceId(rng.nextRange(1, 4));
                dut.fill(page, loc);
                // Same victim: the page the reference evicted is gone.
                if (const auto evicted = ref.fill(page, loc)) {
                    ASSERT_FALSE(dut.probe(*evicted));
                }
                ASSERT_TRUE(dut.probe(page));
            } else if (r < 0.90) {
                ASSERT_EQ(dut.probe(page), ref.probe(page));
            } else if (r < 0.998) {
                ASSERT_EQ(dut.invalidatePage(page),
                          ref.invalidatePage(page));
            } else {
                ASSERT_EQ(dut.invalidateAll(), ref.invalidateAll());
            }
            ASSERT_EQ(dut.hits, ref.hits);
            ASSERT_EQ(dut.misses, ref.misses);
            ASSERT_EQ(dut.fills, ref.fills);
            ASSERT_EQ(dut.invalidations, ref.invalidations);
            // Counting walks every way: on the 4096-way IOTLB count
            // every 64th step, to keep the sanitizer job quick.
            if (dut.capacity() <= 512 || i % 64 == 0) {
                ASSERT_EQ(dut.validEntries(), ref.validEntries());
            }
            if (i % 64 == 0) {
                ASSERT_EQ(validOf(dut), ref.valid());
            }
        }
        ASSERT_EQ(validOf(dut), ref.valid());
        EXPECT_GT(dut.hits, 0u);
        EXPECT_GT(dut.invalidations, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PaperGeometries, TlbDifferential,
    ::testing::Values(TlbConfig{1, 32, 1}, TlbConfig{32, 16, 10},
                      TlbConfig{256, 16, 8}),
    [](const auto &info) {
        return std::to_string(info.param.numSets) + "x" +
               std::to_string(info.param.assoc);
    });
