#include "src/gpu/dispatcher.hh"

#include "src/obs/hostprof.hh"

#include <cassert>
#include <utility>

namespace griffin::gpu {

Dispatcher::Dispatcher(sim::Engine &engine, std::vector<Gpu *> gpus,
                       Tick dispatch_latency)
    : _engine(engine), _gpus(std::move(gpus)),
      _dispatchLatency(dispatch_latency),
      _perGpuDispatched(_gpus.size(), 0)
{
    assert(!_gpus.empty());
    for (std::size_t i = 0; i < _gpus.size(); ++i) {
        _gpus[i]->setWorkgroupDoneCallback([this] { onWorkgroupDone(); });
    }
}

void
Dispatcher::launchKernel(wl::KernelLaunch kernel, sim::EventFn on_done)
{
    assert(_remainingWgs == 0 && "one kernel in flight at a time");

    ++kernelsLaunched;
    _remainingWgs = kernel.workgroups.size();
    _kernelDone = std::move(on_done);

    if (kernel.workgroups.empty()) {
        auto done = std::move(_kernelDone);
        _kernelDone = nullptr;
        _engine.schedule(_dispatchLatency,
                         sim::boxed([this, fn = std::move(done)] {
                             GHPROF_SCOPE(_engine.obs().prof, "dispatcher",
                                          "kernel_done");
                             fn();
                         }));
        return;
    }

    for (auto &wg : kernel.workgroups)
        _pending.push_back(std::move(wg));
    scheduleDeal();
}

void
Dispatcher::scheduleDeal()
{
    if (_dealScheduled || _pending.empty())
        return;
    _dealScheduled = true;
    _engine.schedule(_dispatchLatency, [this] {
        GHPROF_SCOPE(_engine.obs().prof, "dispatcher", "deal");
        _dealScheduled = false;
        dealOne();
    });
}

void
Dispatcher::dealOne()
{
    if (_pending.empty())
        return;

    // Round-robin over the GPUs (GPU 1 opens every round), skipping
    // GPUs with no free CU: the initial burst spreads evenly, while
    // refills flow to whichever GPU retires workgroups fastest.
    bool assigned = false;
    for (std::size_t tries = 0; tries < _gpus.size(); ++tries) {
        const std::size_t i = _cursor;
        _cursor = (_cursor + 1) % _gpus.size();
        if (_gpus[i]->freeCus() == 0)
            continue;
        ++_perGpuDispatched[i];
        ++workgroupsDispatched;
        _gpus[i]->enqueueWorkgroup(std::move(_pending.front()));
        _pending.pop_front();
        assigned = true;
        break;
    }
    // Keep dealing while work and capacity remain; once every CU is
    // busy, onWorkgroupDone() resumes the loop.
    if (assigned)
        scheduleDeal();
}

void
Dispatcher::onWorkgroupDone()
{
    assert(_remainingWgs > 0);
    scheduleDeal();
    if (--_remainingWgs == 0 && _kernelDone) {
        auto done = std::move(_kernelDone);
        _kernelDone = nullptr;
        done();
    }
}

} // namespace griffin::gpu

