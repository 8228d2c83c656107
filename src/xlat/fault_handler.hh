/**
 * @file
 * Interface through which the IOMMU reports GPU page faults to the
 * GPU driver, without the translation layer depending on the driver.
 */

#ifndef GRIFFIN_XLAT_FAULT_HANDLER_HH
#define GRIFFIN_XLAT_FAULT_HANDLER_HH

#include "src/sim/types.hh"

namespace griffin::xlat {

/**
 * Receiver of page faults. Implemented by driver::Driver.
 */
class FaultHandler
{
  public:
    virtual ~FaultHandler() = default;

    /**
     * GPU @p requester faulted on CPU-resident @p page and the policy
     * chose to migrate. The handler must eventually move the page and
     * call Iommu::onMigrationDone(page).
     *
     * @param fid span identity of the fault (obs/span.hh); handlers
     *            thread it through batching and the page transfer so
     *            stage boundaries attribute to the right fault. May be
     *            invalidFaultId when no span sink is installed.
     */
    virtual void onPageFault(DeviceId requester, PageId page,
                             FaultId fid = invalidFaultId) = 0;
};

} // namespace griffin::xlat

#endif // GRIFFIN_XLAT_FAULT_HANDLER_HH
