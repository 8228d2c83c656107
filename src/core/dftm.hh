/**
 * @file
 * Delayed First-Touch Migration (paper SS III-A).
 *
 * On a GPU's first touch of a CPU-resident page, the migration is
 * *denied* if the requesting GPU currently holds the highest share of
 * GPU-resident pages; the access is served from CPU memory via DCA
 * and the page's "accessed once" bit is set. Any later GPU touch of
 * the page migrates it. This balances page occupancy across GPUs and
 * spares single-touch pages the cost of a migration entirely.
 */

#ifndef GRIFFIN_CORE_DFTM_HH
#define GRIFFIN_CORE_DFTM_HH

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/core/migration_policy.hh"
#include "src/obs/context.hh"
#include "src/sim/types.hh"

namespace griffin::core {

/**
 * The DFTM decision engine.
 */
class Dftm
{
  public:
    /**
     * @param gap_cycles lease expires when no CPU DCA access touched
     *        the page for this long (the sweep ended).
     * @param cap_cycles hard ceiling on lease lifetime, so long-lived
     *        hot pages still leave the CPU link eventually.
     * @param obs the owning engine's telemetry context (first touches
     *        and denials are recorded into its page stats), or null.
     */
    explicit Dftm(Tick gap_cycles = 16000, Tick cap_cycles = 64000,
                  const obs::Context *obs = nullptr)
        : _gapCycles(gap_cycles), _capCycles(cap_cycles), _obs(obs)
    {}

    /**
     * Decide the fate of an access by @p requester to CPU-resident
     * @p page at time @p now. Mutates the page's touched bit and the
     * denial lease.
     */
    CpuAccessDecision decide(DeviceId requester, PageId page,
                             mem::PageTable &pt, Tick now);

    /**
     * The CPU-side memory complex observed a DCA access to @p page;
     * renews the page's denial lease if one is active. (Hardware: a
     * last-access timestamp table next to the CPU memory controller,
     * read by the driver each period.)
     */
    void noteCpuAccess(PageId page, Tick now);

    /**
     * Expire leases whose stream went quiet (gap) or whose lifetime
     * hit the cap; @p purge is called for each expired page (the
     * policy uses it to drop the page's IOTLB entry so the next touch
     * reaches the policy again).
     */
    void expireLeases(Tick now, const std::function<void(PageId)> &purge);

    /** Active lease count (tests). */
    std::size_t activeLeases() const { return _lease.size(); }

    /** @name Statistics @{ */
    std::uint64_t firstTouchDenials = 0;
    std::uint64_t firstTouchMigrations = 0;  ///< requester not highest
    std::uint64_t secondTouchMigrations = 0; ///< touched, lease lapsed
    std::uint64_t leaseRenewals = 0;         ///< sweep still streaming
    /** @} */

  private:
    struct Lease
    {
        Tick start;
        Tick lastAccess;
    };

    Tick _gapCycles;
    Tick _capCycles;
    const obs::Context *_obs;
    std::unordered_map<PageId, Lease> _lease;
};

} // namespace griffin::core

#endif // GRIFFIN_CORE_DFTM_HH
