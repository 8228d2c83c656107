/**
 * @file
 * The per-GPU RDMA engine that serves Direct Cache Access requests
 * from other devices (paper SS II-B, Figure 4): a remote device sends a
 * cache-line read/write, the RDMA engine resolves it against the local
 * L2 (falling through to local DRAM on a miss) and replies over the
 * fabric.
 */

#ifndef GRIFFIN_GPU_RDMA_HH
#define GRIFFIN_GPU_RDMA_HH

#include <cstdint>

#include "src/gpu/remote.hh"
#include "src/interconnect/switch.hh"
#include "src/mem/cache.hh"
#include "src/mem/dram.hh"
#include "src/sim/engine.hh"
#include "src/sim/types.hh"

namespace griffin::gpu {

class Gpu;

/**
 * Serves incoming DCA traffic against a local L2 + DRAM pair.
 */
class Rdma
{
  public:
    /**
     * @param engine   event engine.
     * @param network  the inter-device fabric (used for replies).
     * @param router   receives each reply at the requester.
     * @param self     the device this engine belongs to.
     * @param l2       the device's shared L2 cache.
     * @param dram     the device's local memory.
     * @param line_bytes transfer granularity.
     * @param gpu      the GPU whose data phase a served access
     *                 occupies (ACUD drain tracking); nullptr for
     *                 the CPU.
     */
    Rdma(sim::Engine &engine, ic::Network &network, RemoteRouter &router,
         DeviceId self, mem::Cache &l2, mem::Dram &dram,
         unsigned line_bytes = 64, Gpu *gpu = nullptr);

    /**
     * Serve remote access @p r, which has already arrived here: look
     * the line up in the local L2 (DRAM on a miss), then reply to
     * r.requester, where the router's remoteReply(r) runs. On a GPU
     * the access is in that GPU's data phase from arrival until the
     * reply leaves.
     */
    void serve(MemAccess &r);

    /** @name Statistics @{ */
    std::uint64_t readsServed = 0;
    std::uint64_t writesServed = 0;
    std::uint64_t l2HitsServed = 0;
    /** @} */

  private:
    sim::Engine &_engine;
    ic::Network &_network;
    RemoteRouter &_router;
    DeviceId _self;
    mem::Cache &_l2;
    mem::Dram &_dram;
    unsigned _lineBytes;
    Gpu *_gpu;

    /** End of service: leave the data phase and send the reply. */
    void finish(MemAccess &r);
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_RDMA_HH
