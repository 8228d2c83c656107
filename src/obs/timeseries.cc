#include "src/obs/timeseries.hh"

#include "src/obs/hostprof.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "src/sim/engine.hh"

namespace griffin::obs {

TimeSeries::TimeSeries(Tick tick) : _tick(tick)
{
    assert(tick > 0);
}

TimeSeries::~TimeSeries()
{
    stop();
}

void
TimeSeries::setCounterProbe(Series series,
                            std::function<std::uint64_t()> cumulative)
{
    assert(!_engine && "set the probe before start()");
    assert(series != Series::Faults && "faults are event-driven");
    _counters[unsigned(series)] = std::move(cumulative);
}

void
TimeSeries::setLinkBusyProbe(std::function<double()> cumulative_busy,
                             unsigned wires)
{
    assert(!_engine && "set the probe before start()");
    _busyProbe = std::move(cumulative_busy);
    _wires = wires;
}

void
TimeSeries::start(sim::Engine &engine)
{
    assert(!_engine && "time series already started");
    _engine = &engine;
    _intervalBegin = engine.now();
    if (_busyProbe)
        _prevBusy = _busyProbe();
    for (unsigned s = 0; s < numSeries; ++s) {
        if (_counters[s])
            _prevCounts[s] = _counters[s]();
    }
    _hookId = engine.addPeriodicHook(
        _tick, [this](Tick boundary) { flush(boundary); });
}

void
TimeSeries::stop()
{
    if (!_engine)
        return;
    _engine->removePeriodicHook(_hookId);
    // Flush the final partial interval: events after the last
    // boundary would otherwise be dropped and the per-interval sums
    // would no longer reconcile with the run-level aggregates.
    const Tick now = _engine->now();
    bool pending = now > _intervalBegin;
    for (const std::uint64_t c : pendingCounts())
        pending = pending || c > 0;
    if (pending)
        flush(now);
    _engine = nullptr;
    _hookId = 0;
}

void
TimeSeries::fault(double latency)
{
    GHPROF_SCOPE(_engine ? _engine->obs().prof : nullptr, "obs",
                 "timeseries");
    _faultLatencies.push_back(latency);
}

std::array<std::uint64_t, TimeSeries::numSeries>
TimeSeries::pendingCounts() const
{
    std::array<std::uint64_t, numSeries> counts{};
    for (unsigned s = 0; s < numSeries; ++s) {
        if (_counters[s])
            counts[s] = _counters[s]() - _prevCounts[s];
    }
    counts[unsigned(Series::Faults)] = _faultLatencies.size();
    return counts;
}

void
TimeSeries::flush(Tick boundary)
{
    GHPROF_SCOPE(_engine->obs().prof, "obs", "timeseries");
    Row row;
    row.begin = _intervalBegin;
    row.end = boundary;
    row.counts = pendingCounts();

    if (!_faultLatencies.empty()) {
        // Nearest-rank percentiles over the interval's own samples:
        // exact, deterministic, and cheap at fault-population sizes.
        std::sort(_faultLatencies.begin(), _faultLatencies.end());
        const auto rank = [this](double p) {
            const std::size_t n = _faultLatencies.size();
            std::size_t k = std::size_t(std::ceil(p / 100.0 * double(n)));
            k = std::min(std::max<std::size_t>(k, 1), n);
            return _faultLatencies[k - 1];
        };
        row.faultP50 = rank(50.0);
        row.faultP95 = rank(95.0);
    }

    if (_busyProbe && _wires > 0 && boundary > _intervalBegin) {
        const double busy = _busyProbe();
        row.linkUtil = (busy - _prevBusy) /
                       (double(boundary - _intervalBegin) * _wires);
        _prevBusy = busy;
    }

    for (unsigned s = 0; s < numSeries; ++s) {
        _totals[s] += row.counts[s];
        _prevCounts[s] += row.counts[s];
    }

    _rows.push_back(std::move(row));
    _faultLatencies.clear();
    _intervalBegin = boundary;
}

TimeSeries::Summary
TimeSeries::summary() const
{
    Summary s;
    s.tick = _tick;
    s.rows = _rows;
    s.totals = _totals;
    return s;
}

} // namespace griffin::obs
