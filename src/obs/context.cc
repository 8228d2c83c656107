#include "src/obs/context.hh"

#include "src/obs/hostprof.hh"

namespace griffin::obs {

void
Context::instant(Category cat, const std::string &track,
                 const std::string &name, Tick ts,
                 const TraceArgs &args) const
{
    GHPROF_SCOPE(prof, "obs", "trace");
    trace->instant(cat, track, name, ts, args);
}

void
Context::complete(Category cat, const std::string &track,
                  const std::string &name, Tick begin, Tick end,
                  const TraceArgs &args) const
{
    GHPROF_SCOPE(prof, "obs", "trace");
    trace->complete(cat, track, name, begin, end, args);
}

void
Context::counter(Category cat, const std::string &track,
                 const std::string &series, Tick ts, double value) const
{
    GHPROF_SCOPE(prof, "obs", "trace");
    trace->counter(cat, track, series, ts, value);
}

void
Context::flow(Category cat, const std::string &track,
              const std::string &name, Tick ts, std::uint64_t id,
              TraceSession::FlowPhase phase) const
{
    GHPROF_SCOPE(prof, "obs", "trace");
    trace->flow(cat, track, name, ts, id, phase);
}

} // namespace griffin::obs
