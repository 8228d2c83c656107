/**
 * @file
 * Cooperative Page Migration Scheduling (paper SS III-B), inter-GPU
 * half: group the DPC's migration candidates by source GPU so each
 * drained GPU pays its quiesce cost once for many pages, and cap the
 * work per migration phase.
 *
 * (The CPU->GPU half of CPMS — fault batching — lives in
 * driver::Driver, parameterized by N_PTW.)
 */

#ifndef GRIFFIN_CORE_CPMS_HH
#define GRIFFIN_CORE_CPMS_HH

#include <cstdint>
#include <vector>

#include "src/core/dpc.hh"
#include "src/obs/context.hh"
#include "src/sim/types.hh"

namespace griffin::core {

/** One source GPU's batched migrations for this phase. */
struct MigrationBatch
{
    DeviceId source;
    std::vector<MigrationCandidate> moves;
};

/**
 * The inter-GPU batching scheduler.
 */
class Cpms
{
  public:
    /**
     * @param max_pages_per_period total pages migrated per phase.
     * @param max_source_gpus      GPUs drained per phase.
     * @param obs the owning engine's telemetry context (deferred
     *        candidates are recorded into its page stats), or null.
     */
    Cpms(unsigned max_pages_per_period, unsigned max_source_gpus,
         const obs::Context *obs = nullptr);

    /**
     * Turn the (score-sorted) candidate list into per-source batches,
     * preferring the sources with the most candidate traffic.
     * @p now timestamps the candidates dropped by the per-phase caps
     * (recorded as MigrationDeferred when page stats are installed).
     */
    std::vector<MigrationBatch>
    schedule(const std::vector<MigrationCandidate> &candidates,
             Tick now = 0);

    /** @name Statistics @{ */
    std::uint64_t phases = 0;
    std::uint64_t batchesEmitted = 0;
    std::uint64_t pagesScheduled = 0;
    std::uint64_t pagesDeferred = 0; ///< dropped by the per-phase caps
    /** @} */

  private:
    unsigned _maxPages;
    unsigned _maxSources;
    const obs::Context *_obs;
};

} // namespace griffin::core

#endif // GRIFFIN_CORE_CPMS_HH
