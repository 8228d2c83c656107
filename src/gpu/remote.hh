/**
 * @file
 * The record every CU memory access travels in, and the interface for
 * routing Direct Cache Access (DCA) traffic between devices;
 * implemented by the system assembly so a GPU does not need to know
 * about its peers or the CPU memory complex.
 */

#ifndef GRIFFIN_GPU_REMOTE_HH
#define GRIFFIN_GPU_REMOTE_HH

#include <cstdint>

#include "src/sim/types.hh"
#include "src/xlat/iommu.hh"

namespace griffin::gpu {

/**
 * One CU memory op in flight. The requesting GPU takes it from its
 * free list at issue and the same record carries the op through every
 * hop: L1/L2 TLB, the translation request over the fabric and through
 * the IOMMU (the xlat::XlatRequest base), the local L1/L2/DRAM or the
 * DCA round trip to the owner's RDMA engine. Each hop's event
 * captures {component, record pointer}; the record returns to the
 * free list when the op completes at its CU.
 */
struct MemAccess : xlat::XlatRequest
{
    Addr vaddr = 0;
    unsigned cuId = 0;
    /** The issuing wavefront and its issue number (stale filter). */
    std::uint32_t wf = 0;
    std::uint64_t seq = 0;
    /** The device holding the page, once translated. */
    DeviceId owner = 0;
    /** When the DCA request left the requester (remote latency). */
    Tick dcaStart = 0;
};

/**
 * Routes remote (DCA) cache-line accesses between devices.
 */
class RemoteRouter
{
  public:
    virtual ~RemoteRouter() = default;

    /**
     * Carry @p r from r.requester to the RDMA engine of r.owner,
     * which serves it and replies; the router's remoteReply(r) then
     * runs at the requester.
     */
    virtual void remoteAccess(MemAccess &r) = 0;

    /**
     * The owner's data (or write ack) for @p r has landed back at
     * r.requester: hand the record back to the requesting GPU.
     */
    virtual void remoteReply(MemAccess &r) = 0;
};

} // namespace griffin::gpu

#endif // GRIFFIN_GPU_REMOTE_HH
