/**
 * @file
 * Latency distributions collected during a run.
 *
 * MultiGpuSystem installs its Metrics in its engine's context
 * (obs/context.hh); components record into it through that nullable
 * pointer, so standalone component tests (nothing installed) pay
 * nothing. Histogram samples are a
 * handful of integer ops, which is why these stay on even when
 * tracing is off — they feed the p50/p95/p99 columns of the JSON run
 * report.
 */

#ifndef GRIFFIN_OBS_METRICS_HH
#define GRIFFIN_OBS_METRICS_HH

#include "src/sim/stats.hh"
#include "src/sim/types.hh"

namespace griffin::obs {

/**
 * The run-level latency histograms, a plain copyable aggregate so
 * RunResult can carry a snapshot out of the system.
 *
 * Bucketing trades resolution for range; percentile() clamps into
 * [min, max], so the tails stay honest even past the last bucket.
 */
struct LatencyHistograms
{
    /** Fault raise (driver notified) -> page landed on the GPU. */
    sim::Histogram faultLatency{250.0, 400};
    /** One CPU->GPU page transfer, PMC dispatch -> last byte. */
    sim::Histogram cpuMigrationLatency{250.0, 400};
    /** One GPU->GPU page transfer, PMC dispatch -> last byte. */
    sim::Histogram interGpuMigrationLatency{250.0, 400};
    /** One remote DCA access, fabric entry -> requester resumed. */
    sim::Histogram remoteAccessLatency{100.0, 400};
};

/** The run-level latency sink (Context::metrics). */
struct Metrics
{
    LatencyHistograms latency;
};

} // namespace griffin::obs

#endif // GRIFFIN_OBS_METRICS_HH
