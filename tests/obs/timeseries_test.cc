/**
 * @file
 * Unit tests for the interval time-series recorder: counter-probe
 * deltas in their boundary rows, the final partial flush, totals/row
 * reconciliation, nearest-rank fault percentiles, and the
 * link-utilization probe.
 */

#include <gtest/gtest.h>

#include "src/obs/timeseries.hh"
#include "src/sim/engine.hh"

using griffin::Tick;
using griffin::obs::TimeSeries;
using griffin::sim::Engine;

using Series = TimeSeries::Series;

namespace {

/** Aggregate counters standing in for the system's, one per probe. */
struct Counters
{
    std::uint64_t migrations = 0, dca = 0, shootdowns = 0;

    void
    probe(TimeSeries &ts)
    {
        ts.setCounterProbe(Series::Migrations, [this] { return migrations; });
        ts.setCounterProbe(Series::DcaAccesses, [this] { return dca; });
        ts.setCounterProbe(Series::Shootdowns,
                           [this] { return shootdowns; });
    }
};

} // namespace

TEST(TimeSeries, StaticGuardsAreNoOpsWhenNothingIsAttached)
{
    // A fresh engine's context holds no recorder, so the driver's
    // fault site skips recording.
    const Engine e;
    ASSERT_EQ(e.obs().timeseries, nullptr);
}

TEST(TimeSeries, EventsLandInTheirIntervalRow)
{
    Engine e;
    Counters c;
    TimeSeries ts(100);
    c.probe(ts);
    ts.start(e);
    e.schedule(10, [&c] { ++c.migrations; });
    e.schedule(150, [&c] { c.dca += 3; });
    e.schedule(250, [&c] { ++c.shootdowns; });
    e.run();
    ts.stop();

    // Boundary rows [0,100) and [100,200), plus the final partial
    // [200,250) flushed by stop().
    ASSERT_EQ(ts.rows().size(), 3u);
    EXPECT_EQ(ts.rows()[0].begin, Tick(0));
    EXPECT_EQ(ts.rows()[0].end, Tick(100));
    EXPECT_EQ(ts.rows()[0].counts[unsigned(Series::Migrations)], 1u);
    EXPECT_EQ(ts.rows()[1].counts[unsigned(Series::DcaAccesses)], 3u);
    EXPECT_EQ(ts.rows()[2].begin, Tick(200));
    EXPECT_EQ(ts.rows()[2].end, Tick(250));
    EXPECT_EQ(ts.rows()[2].counts[unsigned(Series::Shootdowns)], 1u);
}

TEST(TimeSeries, TotalsReconcileWithTheRowSums)
{
    Engine e;
    Counters c;
    TimeSeries ts(50);
    c.probe(ts);
    ts.start(e);
    for (Tick t = 5; t < 300; t += 7) {
        e.schedule(t, [&c, &ts] {
            ++c.migrations;
            ts.fault(10.0);
        });
    }
    e.run();
    ts.stop();

    std::uint64_t migrations = 0, faults = 0;
    for (const auto &row : ts.rows()) {
        migrations += row.counts[unsigned(Series::Migrations)];
        faults += row.counts[unsigned(Series::Faults)];
    }
    EXPECT_EQ(ts.total(Series::Migrations), migrations);
    EXPECT_EQ(ts.total(Series::Faults), faults);
    EXPECT_EQ(migrations, 43u); // ceil((300 - 5) / 7)
    EXPECT_EQ(faults, 43u);
}

TEST(TimeSeries, CountsBeforeStartAreNotAttributed)
{
    // The probes are deltas from start(): whatever the counters held
    // before the run belongs to no interval.
    Engine e;
    Counters c;
    c.migrations = 5;
    TimeSeries ts(100);
    c.probe(ts);
    ts.start(e);
    e.schedule(10, [&c] { ++c.migrations; });
    e.run();
    ts.stop();
    EXPECT_EQ(ts.total(Series::Migrations), 1u);
}

TEST(TimeSeries, EventsAtTheEndTickOfAFlushedBoundaryStillLand)
{
    // The run ends exactly on a boundary, after events at that tick:
    // stop() flushes them into a zero-width final row.
    Engine e;
    Counters c;
    TimeSeries ts(100);
    c.probe(ts);
    ts.start(e);
    e.schedule(50, [] {});
    e.schedule(100, [&c] { ++c.shootdowns; });
    e.run();
    ts.stop();
    ASSERT_EQ(ts.rows().size(), 2u);
    EXPECT_EQ(ts.rows()[1].begin, Tick(100));
    EXPECT_EQ(ts.rows()[1].end, Tick(100));
    EXPECT_EQ(ts.total(Series::Shootdowns), 1u);
}

TEST(TimeSeries, StopIsIdempotent)
{
    Engine e;
    Counters c;
    TimeSeries ts(100);
    c.probe(ts);
    ts.start(e);
    e.schedule(30, [&c] { ++c.migrations; });
    e.run();
    ts.stop();
    const std::size_t rows = ts.rows().size();
    ts.stop(); // must not add another row
    EXPECT_EQ(ts.rows().size(), rows);
    EXPECT_EQ(ts.total(Series::Migrations), 1u);
}

TEST(TimeSeries, FaultPercentilesAreNearestRank)
{
    Engine e;
    TimeSeries ts(1000);
    ts.start(e);
    e.schedule(10, [&ts] {
        for (int i = 1; i <= 20; ++i)
            ts.fault(double(i));
    });
    e.run();
    ts.stop();

    ASSERT_EQ(ts.rows().size(), 1u);
    const auto &row = ts.rows()[0];
    EXPECT_EQ(row.counts[unsigned(Series::Faults)], 20u);
    // Nearest rank over 20 samples: p50 -> 10th value, p95 -> 19th.
    EXPECT_DOUBLE_EQ(row.faultP50, 10.0);
    EXPECT_DOUBLE_EQ(row.faultP95, 19.0);
}

TEST(TimeSeries, LinkUtilIsTheMeanBusyFractionPerInterval)
{
    Engine e;
    Counters c;
    double busy = 0.0;
    TimeSeries ts(100);
    c.probe(ts);
    ts.setLinkBusyProbe([&busy] { return busy; }, 2);
    ts.start(e);
    // 50 busy cycles land in the first interval; 2 wires over 100
    // ticks give 200 wire-ticks of capacity -> 0.25.
    e.schedule(40, [&busy] { busy += 50.0; });
    e.schedule(150, [&c] { ++c.migrations; });
    e.run();
    ts.stop();

    ASSERT_GE(ts.rows().size(), 2u);
    EXPECT_DOUBLE_EQ(ts.rows()[0].linkUtil, 0.25);
    EXPECT_DOUBLE_EQ(ts.rows()[1].linkUtil, 0.0);
}

TEST(TimeSeries, SummaryCarriesTickRowsAndTotals)
{
    Engine e;
    Counters c;
    TimeSeries ts(100);
    c.probe(ts);
    ts.start(e);
    e.schedule(10, [&c] { ++c.migrations; });
    e.run();
    ts.stop();

    const TimeSeries::Summary s = ts.summary();
    EXPECT_EQ(s.tick, Tick(100));
    EXPECT_EQ(s.rows.size(), ts.rows().size());
    EXPECT_EQ(s.totals[unsigned(Series::Migrations)], 1u);
}
