#include "src/gpu/rdma.hh"

#include <string>

#include "src/gpu/gpu.hh"
#include "src/obs/hostprof.hh"
#include "src/obs/trace.hh"

namespace griffin::gpu {

Rdma::Rdma(sim::Engine &engine, ic::Network &network, RemoteRouter &router,
           DeviceId self, mem::Cache &l2, mem::Dram &dram,
           unsigned line_bytes, Gpu *gpu)
    : _engine(engine), _network(network), _router(router), _self(self),
      _l2(l2), _dram(dram), _lineBytes(line_bytes), _gpu(gpu)
{
}

void
Rdma::serve(MemAccess &r)
{
    if (r.isWrite)
        ++writesServed;
    else
        ++readsServed;

    if (_gpu)
        _gpu->enterDataPhase(r.page);

    // L2 lookup; fall through to DRAM on a miss. Dirty victims write
    // back asynchronously (no one waits on them).
    const auto result = _l2.access(r.vaddr, r.isWrite);
    if (result.writeback)
        _dram.access(_engine.now() + _l2.latency(), result.writebackAddr,
                     _lineBytes, true);

    Tick ready;
    if (result.hit) {
        ++l2HitsServed;
        ready = _engine.now() + _l2.latency();
    } else {
        // Write-allocate: a missing line is fetched from DRAM first,
        // so the DRAM transaction is a read either way.
        ready = _dram.access(_engine.now() + _l2.latency(), r.vaddr,
                             _lineBytes, false);
    }

    // Per-line DCA service spans. CatDca is off by default — remote
    // traffic is per-cache-line and would dominate the trace.
    if (_engine.obs().traceFor(obs::CatDca)) {
        _engine.scheduleAt(ready, [this, p = &r, begin = _engine.now()] {
            if (auto *tr = _engine.obs().traceFor(obs::CatDca)) {
                tr->complete(obs::CatDca, "rdma" + std::to_string(_self),
                             p->isWrite ? "dca_write" : "dca_read", begin,
                             _engine.now(),
                             obs::TraceArgs()
                                 .add("addr", p->vaddr)
                                 .add("from", p->requester));
            }
            finish(*p);
        });
        return;
    }
    _engine.scheduleAt(ready, [this, p = &r] { finish(*p); });
}

void
Rdma::finish(MemAccess &r)
{
    GHPROF_SCOPE(_engine.obs().prof, "rdma", "dca_finish");
    if (_gpu)
        _gpu->leaveDataPhase(r.page);
    const std::uint64_t reply_bytes = r.isWrite
        ? ic::MessageSizes::dcaWriteAck
        : ic::MessageSizes::dcaReadReply;
    _network.send(_self, r.requester, reply_bytes,
                  [this, p = &r] { _router.remoteReply(*p); });
}

} // namespace griffin::gpu
