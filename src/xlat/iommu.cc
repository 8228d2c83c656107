#include "src/xlat/iommu.hh"

#include "src/obs/hostprof.hh"

#include <cassert>
#include <utility>

#include <string>

#include "src/obs/span.hh"
#include "src/obs/trace.hh"
#include "src/sim/log.hh"
#include "src/sys/chaos.hh"

namespace griffin::xlat {

namespace {
/** The IOMMU's trace track. */
const std::string kTrack = "iommu";
} // namespace

Iommu::Iommu(sim::Engine &engine, ic::Network &network, mem::PageTable &pt,
             const IommuConfig &config)
    : _engine(engine), _network(network), _pageTable(pt), _config(config),
      _iotlb(config.iotlb)
{
    assert(config.numWalkers > 0);
}

void
Iommu::RequestList::push(XlatRequest &req)
{
    req.next = nullptr;
    if (tail)
        tail->next = &req;
    else
        head = &req;
    tail = &req;
}

XlatRequest *
Iommu::RequestList::take()
{
    XlatRequest *first = head;
    head = tail = nullptr;
    return first;
}

void
Iommu::request(XlatRequest &req)
{
    assert(_policy && _faultHandler &&
           "policy and fault handler must be installed first");
    assert(req.client && "a request needs a client to reply to");
    ++requests;

    if (req.origin == maxTick)
        req.origin = _engine.now();
    req.walkStart = 0;
    req.walkEnd = 0;
    req.fid = invalidFaultId;

    // IOTLB probe first; a hit skips the walk entirely.
    _engine.schedule(_iotlb.latency(), [this, r = &req] { lookup(*r); });
}

void
Iommu::lookup(XlatRequest &req)
{
    GHPROF_SCOPE(_engine.obs().prof, "iommu", "iotlb");
    // A page under migration must park even on what would be an
    // IOTLB hit; blockPage() purges the entry, so a lookup hit
    // implies the page is stable.
    if (auto loc = _iotlb.lookup(req.page)) {
        ++iotlbHits;
        reply(req, XlatReply{*loc, *loc == req.requester});
        return;
    }
    // Coalesce with a queued or in-flight walk of the same page: the
    // walkers resolve a page once, however many requesters pile up
    // behind it (this matters after a migration, when every wavefront
    // of every GPU re-faults the page at once).
    RequestList &waiters = _walkWaiters[req.page];
    const bool first = waiters.empty();
    waiters.push(req);
    if (first) {
        _walkQueue.push_back(req.page);
        startWalks();
    } else {
        ++walksCoalesced;
    }
}

void
Iommu::startWalks()
{
    while (_busyWalkers < _config.numWalkers &&
           _walkHead < _walkQueue.size()) {
        const PageId page = _walkQueue[_walkHead++];
        if (2 * _walkHead >= _walkQueue.size()) {
            // Drop the consumed prefix: each element moves at most
            // once per halving, and a drained queue keeps its storage.
            _walkQueue.erase(_walkQueue.begin(),
                             _walkQueue.begin() +
                                 static_cast<std::ptrdiff_t>(_walkHead));
            _walkHead = 0;
        }
        ++_busyWalkers;
        ++walks;
        // Waiters present now left the walk queue; late coalescers
        // keep walkStart = 0, which the span sink clamps to a
        // zero-length queue stage.
        auto it = _walkWaiters.find(page);
        assert(it != _walkWaiters.end() && !it->second.empty());
        for (XlatRequest *r = it->second.head; r; r = r->next)
            r->walkStart = _engine.now();
        Tick latency = _config.walkLatency;
        if (_injector && _injector->stallWalker()) {
            // Injected walker stall: the walk simply takes longer;
            // every coalesced waiter absorbs the penalty.
            const Tick penalty = _injector->config().walkerStallPenalty;
            latency += penalty;
            ++walksStalled;
            _injector->noteRecoveryCycles(penalty);
            if (auto *tr = _engine.obs().traceFor(obs::CatChaos)) {
                tr->instant(obs::CatChaos, kTrack, "walker_stall",
                            _engine.now(),
                            obs::TraceArgs()
                                .add("page", page)
                                .add("penalty", penalty));
            }
        }
        _engine.schedule(latency, [this, page] {
            GHPROF_SCOPE(_engine.obs().prof, "iommu", "walk_done");
            finishWalk(page);
        });
    }
}

void
Iommu::finishWalk(PageId page)
{
    assert(_busyWalkers > 0);
    --_busyWalkers;
    startWalks();

    auto it = _walkWaiters.find(page);
    assert(it != _walkWaiters.end());
    // Read each link before resolve() reuses it for parking.
    for (XlatRequest *r = it->second.take(), *next; r; r = next) {
        next = r->next;
        r->walkEnd = _engine.now();
        resolve(*r);
    }
}

void
Iommu::resolve(XlatRequest &req)
{
    mem::PageInfo &pi = _pageTable.info(req.page);

    if (pi.migrating) {
        ++parkedRequests;
        if (auto *tr = _engine.obs().traceFor(obs::CatFault)) {
            tr->instant(obs::CatFault, kTrack, "request_parked",
                        _engine.now(),
                        obs::TraceArgs()
                            .add("gpu", req.requester)
                            .add("page", req.page));
        }
        _parked[req.page].push(req);
        ++_parkedNow;
        return;
    }

    if (pi.dcaFallback) {
        // A recovery timeout degraded this page to DCA remote access:
        // serve it from CPU memory without consulting the policy, so
        // an abort can never re-enter the migration machinery.
        ++dcaRedirects;
        ++fallbackRedirects;
        reply(req, XlatReply{cpuDeviceId, false});
        return;
    }

    if (pi.location == cpuDeviceId) {
        const auto decision =
            _policy->onCpuResidentAccess(req.requester, req.page, _pageTable);
        if (decision.migrate) {
            ++faultsRaised;
            pi.migrating = true;
            const DeviceId requester = req.requester;
            const PageId page = req.page;
            // Open the span: the pre-fault stages (queue, walk,
            // policy) are known in full right here.
            FaultId fid = invalidFaultId;
            if (auto *fs = _engine.obs().spans) {
                fid = fs->beginFault(requester, page, req.origin);
                fs->mark(fid, obs::Stage::WalkQueue, req.walkStart);
                fs->mark(fid, obs::Stage::Walk, req.walkEnd);
                fs->mark(fid, obs::Stage::Policy, _engine.now());
            }
            req.fid = fid;
            _parked[page].push(req);
            ++_parkedNow;
            GLOG(Trace, "iommu: fault page " << page << " -> gpu "
                                             << requester);
            if (auto *tr =
                    _engine.obs().traceFor(obs::CatFault)) {
                tr->instant(obs::CatFault, kTrack, "fault_raised",
                            _engine.now(),
                            obs::TraceArgs()
                                .add("gpu", requester)
                                .add("page", page));
                if (fid != invalidFaultId) {
                    tr->flow(obs::CatFault, kTrack, "fault",
                             _engine.now(), fid,
                             obs::TraceSession::FlowPhase::Begin);
                }
            }
            _faultHandler->onPageFault(requester, page, fid);
        } else {
            ++dcaRedirects;
            if (auto *tr = _engine.obs().traceFor(obs::CatDca)) {
                tr->instant(obs::CatDca, kTrack, "dca_redirect",
                            _engine.now(),
                            obs::TraceArgs()
                                .add("gpu", req.requester)
                                .add("page", req.page));
            }
            // DCA to CPU memory: translation is never cacheable, so
            // the policy sees the next access too (second touch).
            reply(req, XlatReply{cpuDeviceId, false});
        }
        return;
    }

    // GPU-resident page: cache it in the IOTLB and answer. The GPU
    // may cache the translation only if the page is local to it.
    _iotlb.fill(req.page, pi.location);
    reply(req, XlatReply{pi.location, pi.location == req.requester});
}

void
Iommu::reply(XlatRequest &req, XlatReply rep)
{
    req.reply = rep;
    if (req.fid == invalidFaultId) {
        _network.send(cpuDeviceId, req.requester, ic::MessageSizes::xlatReply,
                      [r = &req] { r->client->onXlatReply(*r); });
        return;
    }
    // This reply retires a fault: close the span when it lands at the
    // requester, where the stalled wavefront actually resumes.
    _network.send(cpuDeviceId, req.requester, ic::MessageSizes::xlatReply,
                  [this, r = &req] {
        const Tick now = _engine.now();
        if (auto *spans = _engine.obs().spans)
            spans->complete(r->fid, now);
        if (auto *tr = _engine.obs().traceFor(obs::CatFault)) {
            const std::string track = "gpu" + std::to_string(r->requester);
            tr->instant(obs::CatFault, track, "fault_resume", now,
                        obs::TraceArgs().add("fault", r->fid));
            tr->flow(obs::CatFault, track, "fault", now, r->fid,
                     obs::TraceSession::FlowPhase::End);
        }
        r->client->onXlatReply(*r);
    });
}

void
Iommu::blockPage(PageId page)
{
    _pageTable.info(page).migrating = true;
    _iotlb.invalidatePage(page);
}

void
Iommu::onMigrationDone(PageId page)
{
    assert(!_pageTable.info(page).migrating &&
           "page table must be updated before onMigrationDone");
    _iotlb.invalidatePage(page);

    auto it = _parked.find(page);
    if (it == _parked.end())
        return;
    // Read each link before resolve() may park the request again.
    for (XlatRequest *r = it->second.take(), *next; r; r = next) {
        next = r->next;
        --_parkedNow;
        resolve(*r);
    }
}

} // namespace griffin::xlat
