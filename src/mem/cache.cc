#include "src/mem/cache.hh"

#include <algorithm>
#include <bit>
#include <cassert>

namespace griffin::mem {

Cache::Cache(const CacheConfig &config) : _config(config)
{
    assert(config.lineBytes > 0 && std::has_single_bit(config.lineBytes));
    assert(config.assoc > 0);
    assert(config.sizeBytes % (std::uint64_t(config.lineBytes) * config.assoc)
           == 0 && "size must be a whole number of sets");

    _lineShift = unsigned(std::countr_zero(config.lineBytes));
    _numSets = unsigned(config.sizeBytes /
                        (std::uint64_t(config.lineBytes) * config.assoc));
    assert(_numSets > 0);
    const std::size_t ways = std::size_t(_numSets) * config.assoc;
    _tags.assign(ways, invalidTag);
    _lastUse.assign(ways, 0);
    _dirty.assign(ways, 0);
}

std::size_t
Cache::findWay(Addr line, std::size_t base) const
{
    const Addr *tags = &_tags[base];
    for (unsigned way = 0; way < _config.assoc; ++way) {
        if (tags[way] == line)
            return base + way;
    }
    return noWay;
}

Cache::AccessResult
Cache::access(Addr addr, bool is_write)
{
    AccessResult result;
    ++_useClock;
    const Addr line = lineAddr(addr);

    const std::size_t base = setBase(line);
    if (const std::size_t way = findWay(line, base); way != noWay) {
        ++hits;
        _lastUse[way] = _useClock;
        if (is_write)
            _dirty[way] = 1;
        result.hit = true;
        return result;
    }

    ++misses;

    // Pick a victim: an invalid way if one exists, else true LRU.
    std::size_t victim = base;
    for (std::size_t way = base; way < base + _config.assoc; ++way) {
        if (_tags[way] == invalidTag) {
            victim = way;
            break;
        }
        if (_lastUse[way] < _lastUse[victim])
            victim = way;
    }

    if (_tags[victim] != invalidTag) {
        ++evictions;
        if (_dirty[victim]) {
            ++writebacks;
            result.writeback = true;
            result.writebackAddr = _tags[victim] << _lineShift;
        }
    }

    _tags[victim] = line;
    _dirty[victim] = is_write ? 1 : 0;
    _lastUse[victim] = _useClock;
    return result;
}

bool
Cache::probe(Addr addr) const
{
    const Addr line = lineAddr(addr);
    return findWay(line, setBase(line)) != noWay;
}

void
Cache::invalidateWay(std::size_t way, FlushResult &result)
{
    _tags[way] = invalidTag;
    ++result.linesInvalidated;
    if (_dirty[way]) {
        ++result.dirtyWritebacks;
        ++writebacks;
        _dirty[way] = 0;
    }
}

Cache::FlushResult
Cache::flushPages(const std::vector<PageId> &pages, unsigned page_shift)
{
    assert(std::is_sorted(pages.begin(), pages.end()));
    assert(page_shift >= _lineShift);
    FlushResult result;
    const unsigned page_line_shift = page_shift - _lineShift;
    const std::uint64_t lines_per_page = std::uint64_t(1) << page_line_shift;

    if (pages.size() * lines_per_page >= _numSets) {
        // The pages reach every set: one pass over the tags.
        for (std::size_t way = 0; way < _tags.size(); ++way) {
            if (_tags[way] == invalidTag)
                continue;
            const PageId page = _tags[way] >> page_line_shift;
            if (std::binary_search(pages.begin(), pages.end(), page))
                invalidateWay(way, result);
        }
        return result;
    }

    // Sparse pages: probe each of their lines through its set. A
    // page's lines fall in consecutive sets.
    for (const PageId page : pages) {
        Addr line = Addr(page) << page_line_shift;
        std::size_t base = setBase(line);
        for (std::uint64_t i = 0; i < lines_per_page; ++i, ++line) {
            if (const std::size_t way = findWay(line, base); way != noWay)
                invalidateWay(way, result);
            base += _config.assoc;
            if (base == _tags.size())
                base = 0;
        }
    }
    return result;
}

Cache::FlushResult
Cache::flushAll()
{
    FlushResult result;
    for (std::size_t way = 0; way < _tags.size(); ++way) {
        if (_tags[way] != invalidTag)
            invalidateWay(way, result);
    }
    return result;
}

std::uint64_t
Cache::validLines() const
{
    return std::uint64_t(std::count_if(
        _tags.begin(), _tags.end(),
        [](Addr tag) { return tag != invalidTag; }));
}

} // namespace griffin::mem
