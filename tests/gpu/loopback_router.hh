/**
 * @file
 * A test stand-in for the system's DCA router: each remote access
 * completes after a fixed latency without modelling the fabric or the
 * owner's memory, and is logged as (owner, address). Replies an RDMA
 * engine sends through it are logged too; one addressed to a rig GPU
 * completes that GPU's access.
 */

#ifndef GRIFFIN_TESTS_GPU_LOOPBACK_ROUTER_HH
#define GRIFFIN_TESTS_GPU_LOOPBACK_ROUTER_HH

#include <utility>
#include <vector>

#include "src/gpu/gpu.hh"
#include "src/gpu/remote.hh"
#include "src/sim/engine.hh"

namespace griffin::test {

class LoopbackRouter : public gpu::RemoteRouter
{
  public:
    LoopbackRouter(sim::Engine &engine, Tick latency)
        : latency(latency), _engine(engine)
    {
    }

    void
    remoteAccess(gpu::MemAccess &r) override
    {
        remote.push_back({r.owner, r.vaddr});
        _engine.schedule(latency, [this, p = &r] { remoteReply(*p); });
    }

    void
    remoteReply(gpu::MemAccess &r) override
    {
        replies.push_back({r.requester, _engine.now()});
        if (r.requester >= 1 && r.requester <= gpus.size())
            gpus[r.requester - 1]->accessDone(r);
    }

    /** The rig's GPUs, in device-id order (device 1 first). */
    std::vector<gpu::Gpu *> gpus;
    /** (owner, address) of every remote access, in issue order. */
    std::vector<std::pair<DeviceId, Addr>> remote;
    /** (requester, landing tick) of every reply, in landing order. */
    std::vector<std::pair<DeviceId, Tick>> replies;
    Tick latency;

  private:
    sim::Engine &_engine;
};

} // namespace griffin::test

#endif // GRIFFIN_TESTS_GPU_LOOPBACK_ROUTER_HH
