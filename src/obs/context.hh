/**
 * @file
 * The run-scoped telemetry context: one nullable pointer per sink.
 *
 * A sim::Engine owns exactly one Context, and every component reaches
 * it through the engine it already holds (`_engine.obs()`). A null
 * pointer means that telemetry is off for this engine, so an
 * instrumentation site costs one pointer load and one branch when
 * its sink is absent. Components built without an engine (the page
 * table, DFTM, CPMS, the first-touch policy) are handed a pointer to
 * the context instead.
 *
 * Installing a sink is plain assignment. MultiGpuSystem installs what
 * it owns (metrics, spans, page stats, the time series, and the host
 * profiler for the duration of run()). A caller-owned TraceSession is
 * installed the same way, through `system.engine().obs().trace`.
 * Contexts are never shared between engines, so independent
 * simulations on concurrent threads (sys::SweepRunner) each record
 * into their own sinks, and two systems alive on one thread never see
 * each other's events.
 *
 * Trace events are recorded through the context rather than straight
 * into the session: traceFor() hands back the context itself, whose
 * instant()/complete()/counter()/flow() meter the call into `prof` as
 * "obs;trace" and forward it. The other self-metering sinks
 * (PageStats, TimeSeries, Sampler) reach the profiler through the
 * engine they were given.
 */

#ifndef GRIFFIN_OBS_CONTEXT_HH
#define GRIFFIN_OBS_CONTEXT_HH

#include <cstdint>
#include <string>

#include "src/obs/trace.hh"
#include "src/sim/types.hh"

namespace griffin::obs {

class FaultSpans;
class HostProfiler;
class Metrics;
class PageStats;
class TimeSeries;

/** The sinks one engine records into; every pointer may be null. */
struct Context
{
    TraceSession *trace = nullptr;
    Metrics *metrics = nullptr;
    FaultSpans *spans = nullptr;
    PageStats *pageStats = nullptr;
    TimeSeries *timeseries = nullptr;
    HostProfiler *prof = nullptr;

    /**
     * This context iff a trace is installed with @p cat enabled, else
     * nullptr. The guard of every trace site, so argument formatting
     * runs only for events that are recorded.
     */
    const Context *
    traceFor(Category cat) const
    {
        return (trace && (trace->categories() & cat)) ? this : nullptr;
    }

    /** @name Trace recording (see TraceSession); metered as obs;trace @{ */
    void instant(Category cat, const std::string &track,
                 const std::string &name, Tick ts,
                 const TraceArgs &args = {}) const;
    void complete(Category cat, const std::string &track,
                  const std::string &name, Tick begin, Tick end,
                  const TraceArgs &args = {}) const;
    void counter(Category cat, const std::string &track,
                 const std::string &series, Tick ts, double value) const;
    void flow(Category cat, const std::string &track,
              const std::string &name, Tick ts, std::uint64_t id,
              TraceSession::FlowPhase phase) const;
    /** @} */
};

} // namespace griffin::obs

#endif // GRIFFIN_OBS_CONTEXT_HH
