/**
 * @file
 * Interval time-series over the system's event stream: migrations,
 * DCA accesses, shootdowns and faults per fixed tick interval, plus
 * per-interval fault p50/p95 and link utilization.
 *
 * The recorder rides sim::Engine's periodic-hook mechanism (like the
 * probe Sampler), so interval boundaries fire inside run() without
 * extending the simulated end time. The migration, DCA and shootdown
 * columns are per-interval deltas of the run-level aggregate counters
 * (pageTable.migrations, remoteAccesses, cpuShootdowns +
 * gpuShootdowns), read at each boundary through counter probes the
 * owning system registers; their interval sums therefore equal the
 * run totals by construction. Faults stay event-driven: the driver
 * reports each serviced fault's latency through fault(), which also
 * feeds the per-interval p50/p95. The final partial interval is
 * flushed at stop(), so nothing after the last boundary is dropped.
 *
 * The system installs its recorder in its engine's context
 * (Context::timeseries); nothing is recorded when none is installed,
 * and concurrent sweep runs each own one.
 */

#ifndef GRIFFIN_OBS_TIMESERIES_HH
#define GRIFFIN_OBS_TIMESERIES_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/types.hh"

namespace griffin::sim {
class Engine;
} // namespace griffin::sim

namespace griffin::obs {

/**
 * The interval recorder. Owned by MultiGpuSystem (built only when
 * SystemConfig::timeseriesTick > 0) and started for run().
 */
class TimeSeries
{
  public:
    /** The columns. */
    enum class Series : unsigned
    {
        Migrations = 0, ///< page-table commits (counter probe)
        DcaAccesses,    ///< GPU accesses served remotely (counter probe)
        Shootdowns,     ///< CPU flushes + GPU shootdown events (probe)
        Faults,         ///< serviced page faults (fault())
    };

    static constexpr unsigned numSeries = 4;

    /** One closed interval [begin, end). */
    struct Row
    {
        Tick begin = 0;
        Tick end = 0;
        std::array<std::uint64_t, numSeries> counts{};
        double faultP50 = 0.0;
        double faultP95 = 0.0;
        /** Mean busy fraction across all fabric wires. */
        double linkUtil = 0.0;
    };

    /** The copyable end-of-run digest carried by RunResult. */
    struct Summary
    {
        Tick tick = 0; ///< interval width; 0 = recorder was off
        std::vector<Row> rows;
        std::array<std::uint64_t, numSeries> totals{};
    };

    /** @param tick interval width in cycles (must be > 0). */
    explicit TimeSeries(Tick tick);
    ~TimeSeries();

    TimeSeries(const TimeSeries &) = delete;
    TimeSeries &operator=(const TimeSeries &) = delete;

    /**
     * Poll source for @p series (not Faults): returns the aggregate
     * counter's *cumulative* value; each flush records the delta since
     * the previous one. Set before start().
     */
    void setCounterProbe(Series series,
                         std::function<std::uint64_t()> cumulative);

    /**
     * Poll source for link utilization: returns the *cumulative* busy
     * cycles summed over @p wires fabric wires; each flush converts
     * the delta into a mean busy fraction. Set before start().
     */
    void setLinkBusyProbe(std::function<double()> cumulative_busy,
                          unsigned wires);

    /** Register the interval boundary hook on @p engine. */
    void start(sim::Engine &engine);

    /**
     * Deregister from the engine and flush the final partial interval
     * (anything recorded since the last boundary). Recorded rows are
     * kept; safe to call twice.
     */
    void stop();

    /**
     * One serviced fault of latency @p latency: bumps Faults and
     * feeds the interval's percentiles.
     */
    void fault(double latency);

    /** @name Inspection (reports, tests) @{ */

    Tick tick() const { return _tick; }
    const std::vector<Row> &rows() const { return _rows; }

    /** Run total of @p series across all flushed rows. */
    std::uint64_t total(Series series) const
    {
        return _totals[unsigned(series)];
    }

    Summary summary() const;

    /** @} */

  private:
    void flush(Tick boundary);

    Tick _tick;
    std::vector<Row> _rows;
    std::array<std::uint64_t, numSeries> _totals{};

    /** The accumulating open interval. */
    Tick _intervalBegin = 0;
    std::vector<double> _faultLatencies;

    /** Counter probes, and their readings at the last boundary. */
    std::array<std::function<std::uint64_t()>, numSeries> _counters;
    std::array<std::uint64_t, numSeries> _prevCounts{};

    std::function<double()> _busyProbe;
    unsigned _wires = 0;
    double _prevBusy = 0.0;

    sim::Engine *_engine = nullptr;
    std::uint64_t _hookId = 0;

    /** The open interval's counts: probe deltas plus the faults. */
    std::array<std::uint64_t, numSeries> pendingCounts() const;
};

} // namespace griffin::obs

#endif // GRIFFIN_OBS_TIMESERIES_HH
