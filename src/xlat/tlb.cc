#include "src/xlat/tlb.hh"

#include <algorithm>
#include <cassert>

namespace griffin::xlat {

Tlb::Tlb(const TlbConfig &config) : _config(config)
{
    assert(config.numSets > 0 && config.assoc > 0);
    const std::size_t ways = std::size_t(config.numSets) * config.assoc;
    _pages.assign(ways, invalidPage);
    _locations.assign(ways, invalidDeviceId);
    _lastUse.assign(ways, 0);
}

std::size_t
Tlb::findWay(PageId page) const
{
    const std::size_t base = setBase(page);
    const PageId *pages = &_pages[base];
    for (unsigned way = 0; way < _config.assoc; ++way) {
        if (pages[way] == page)
            return base + way;
    }
    return noWay;
}

std::optional<DeviceId>
Tlb::lookup(PageId page)
{
    assert(page != invalidPage);
    ++_useClock;
    if (const std::size_t way = findWay(page); way != noWay) {
        ++hits;
        _lastUse[way] = _useClock;
        return _locations[way];
    }
    ++misses;
    return std::nullopt;
}

bool
Tlb::probe(PageId page) const
{
    assert(page != invalidPage);
    return findWay(page) != noWay;
}

void
Tlb::fill(PageId page, DeviceId location)
{
    assert(page != invalidPage);
    ++_useClock;
    ++fills;

    if (const std::size_t way = findWay(page); way != noWay) {
        _locations[way] = location;
        _lastUse[way] = _useClock;
        return;
    }

    const std::size_t base = setBase(page);
    std::size_t victim = base;
    for (std::size_t way = base; way < base + _config.assoc; ++way) {
        if (_pages[way] == invalidPage) {
            victim = way;
            break;
        }
        if (_lastUse[way] < _lastUse[victim])
            victim = way;
    }
    _pages[victim] = page;
    _locations[victim] = location;
    _lastUse[victim] = _useClock;
}

bool
Tlb::invalidatePage(PageId page)
{
    assert(page != invalidPage);
    if (const std::size_t way = findWay(page); way != noWay) {
        _pages[way] = invalidPage;
        ++invalidations;
        return true;
    }
    return false;
}

std::uint64_t
Tlb::invalidateAll()
{
    std::uint64_t count = 0;
    for (PageId &page : _pages) {
        if (page != invalidPage) {
            page = invalidPage;
            ++count;
        }
    }
    invalidations += count;
    return count;
}

std::uint64_t
Tlb::validEntries() const
{
    return std::uint64_t(std::count_if(
        _pages.begin(), _pages.end(),
        [](PageId page) { return page != invalidPage; }));
}

void
Tlb::forEachValid(
    const std::function<void(PageId, DeviceId)> &visit) const
{
    for (std::size_t way = 0; way < _pages.size(); ++way) {
        if (_pages[way] != invalidPage)
            visit(_pages[way], _locations[way]);
    }
}

} // namespace griffin::xlat
