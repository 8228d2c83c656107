#include "src/core/first_touch_policy.hh"

#include "src/mem/page_table.hh"
#include "src/obs/pagestats.hh"

namespace griffin::core {

CpuAccessDecision
FirstTouchPolicy::onCpuResidentAccess(DeviceId requester, PageId page,
                                      mem::PageTable &pt)
{
    pt.info(page).touched = true;
    ++firstTouchMigrations;
    if (auto *ps = _obs ? _obs->pageStats : nullptr)
        ps->recordNow(obs::PageEvent::FirstTouch, page, cpuDeviceId,
                      requester);
    return CpuAccessDecision{true};
}

} // namespace griffin::core
