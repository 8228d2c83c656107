#include "src/core/dftm.hh"

#include "src/mem/page_table.hh"
#include "src/obs/pagestats.hh"

namespace griffin::core {

CpuAccessDecision
Dftm::decide(DeviceId requester, PageId page, mem::PageTable &pt,
             Tick now)
{
    mem::PageInfo &pi = pt.info(page);

    if (pi.touched) {
        // Within the denial lease the first sweep is still streaming
        // from CPU memory (mostly through the IOTLB; only walk-level
        // misses reach this point): keep serving via DCA and renew.
        if (auto it = _lease.find(page); it != _lease.end()) {
            // Still within the denial lease (rare here: most lease
            // traffic is absorbed by the IOTLB): keep denying.
            if (now < it->second.lastAccess + _gapCycles &&
                now < it->second.start + _capCycles) {
                it->second.lastAccess = now;
                ++leaseRenewals;
                return CpuAccessDecision{false};
            }
            _lease.erase(it);
        }
        // Second touch after a gap (by any GPU): real reuse, migrate.
        ++secondTouchMigrations;
        return CpuAccessDecision{true};
    }

    // Deny only a GPU that is ahead of its fair share of pages (the
    // "highest occupancy" test, with hysteresis so the cold start —
    // where every GPU ties at zero — does not deny everyone and pile
    // the whole working set onto the CPU link).
    const unsigned num_gpus = pt.numDevices() - 1;
    const double fair_share = 1.0 / double(num_gpus);
    std::uint64_t on_gpus = 0;
    for (DeviceId dev = 1; dev < pt.numDevices(); ++dev)
        on_gpus += pt.residentPages(dev);
    const bool ahead =
        on_gpus >= 4 * num_gpus &&
        pt.gpuOccupancy(requester) > fair_share * 1.05 &&
        pt.hasHighestOccupancy(requester);
    if (ahead) {
        // Deny: the requester already holds the most pages. Serve via
        // DCA; a touch after the sweep's lease lapses migrates it.
        pi.touched = true;
        _lease[page] = Lease{now, now};
        ++firstTouchDenials;
        if (auto *ps = _obs ? _obs->pageStats : nullptr) {
            ps->record(obs::PageEvent::FirstTouch, page, cpuDeviceId,
                       requester, now);
            ps->record(obs::PageEvent::DftmDenial, page, cpuDeviceId,
                       requester, now);
        }
        return CpuAccessDecision{false};
    }

    ++firstTouchMigrations;
    if (auto *ps = _obs ? _obs->pageStats : nullptr) {
        ps->record(obs::PageEvent::FirstTouch, page, cpuDeviceId,
                   requester, now);
    }
    return CpuAccessDecision{true};
}

void
Dftm::noteCpuAccess(PageId page, Tick now)
{
    if (auto it = _lease.find(page); it != _lease.end())
        it->second.lastAccess = now;
}

void
Dftm::expireLeases(Tick now, const std::function<void(PageId)> &purge)
{
    for (auto it = _lease.begin(); it != _lease.end();) {
        const bool quiet = now >= it->second.lastAccess + _gapCycles;
        const bool capped = now >= it->second.start + _capCycles;
        if (quiet || capped) {
            purge(it->first);
            it = _lease.erase(it);
        } else {
            ++it;
        }
    }
}

} // namespace griffin::core
