/**
 * @file
 * Shared harness for the figure-regeneration benches: flag parsing,
 * the parallel sweep harness, and per-run observability capture so
 * one binary can print a whole paper figure.
 *
 * Common flags:
 *   --scale=N   footprint divisor vs the paper (default 32; 1 = paper)
 *   --seed=N    master seed (default 42)
 *   --jobs=N    concurrent simulations (default: hardware threads)
 *   --csv       also emit machine-readable CSV after each table
 *   --workload=X  restrict to one Table III abbreviation
 *
 * Observability flags:
 *   --trace=FILE    Chrome trace-event JSON of every run (Perfetto)
 *   --trace-all     enable the hot categories too (net, dca)
 *   --report=FILE   JSON run report (config, counters, percentiles)
 *   --samples=FILE  time-series CSV, one section per run
 *   --sample=N      sampling period in cycles (default 10000; 0 = off)
 *   --page-stats    per-page lifecycle telemetry; adds a "page_stats"
 *                   section to each report run (src/obs/pagestats.hh)
 *   --timeseries=N  event time-series with N-cycle intervals; adds a
 *                   "timeseries" section to each report run (0 = off)
 *   --host-prof[=FILE]  host-side self-profiling: attributes the
 *                   simulator's wall-clock time per component/event
 *                   type, adds a "host_profile" section to each report
 *                   run, prints a summary of all runs on stderr at
 *                   exit, and (with =FILE) writes the aggregated
 *                   folded stacks for flamegraph/speedscope
 *   --host-gate=N   warn (never fail) when the runs dispatched fewer
 *                   than N events/sec of host wall time; implies
 *                   --host-prof
 *   --progress      one-line sweep progress on stderr (done/total,
 *                   elapsed, ETA); auto-suppressed when stderr is not
 *                   a terminal
 *   --log=LEVEL     stderr log level: error|warn|info|trace
 *                   (log lines carry a [tick] prefix while a system runs)
 *
 * Chaos flags (fault injection, see src/sys/chaos.hh):
 *   --chaos=SPEC    inject faults: a bare rate ("0.01") or key=value
 *                   pairs ("dma=0.5,link=0.02,ack=0.2,timeout=200000")
 *   --chaos-seed=N  seed of the injector's private RNG streams
 *
 * Concurrency model: benches submit every independent run of a figure
 * to a bench::Sweep, which fans them out across --jobs worker threads
 * (sys::SweepRunner) and returns results in submission order. Each
 * run records into its own trace/report/samples fragments (each
 * system's sinks hang off its own engine's context), and ObsState
 * merges the fragments in submission order when the program exits —
 * so every byte of stdout, CSV, trace, report and samples output is
 * identical for --jobs=1 and --jobs=16.
 */

#ifndef GRIFFIN_BENCH_COMMON_HH
#define GRIFFIN_BENCH_COMMON_HH

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/obs/sampler.hh"
#include "src/obs/trace.hh"
#include "src/sim/log.hh"
#include "src/sys/chaos.hh"
#include "src/sys/multi_gpu_system.hh"
#include "src/sys/report.hh"
#include "src/sys/sweep_runner.hh"
#include "src/workloads/workload.hh"

namespace griffin::bench {

/** Parsed command-line options. */
struct Options
{
    unsigned scaleDiv = 32;
    std::uint64_t seed = 42;
    /** Concurrent simulations; 0 = one per hardware thread. */
    unsigned jobs = 0;
    bool csv = false;
    std::vector<std::string> workloads; // empty = all ten

    /** @name Observability outputs (empty = disabled) @{ */
    std::string traceFile;
    std::string reportFile;
    std::string samplesFile;
    bool traceAllCategories = false;
    Tick samplePeriod = 10000;
    /** Per-page lifecycle telemetry (--page-stats). */
    bool pageStats = false;
    /** Event time-series interval width (--timeseries=N; 0 = off). */
    Tick timeseriesTick = 0;
    /** Host-side self-profiling (--host-prof[=FILE]). */
    bool hostProf = false;
    /** Folded-stack output path (--host-prof=FILE; empty = none). */
    std::string hostProfFile;
    /** Sweep progress line on stderr (--progress). */
    bool progress = false;
    /**
     * Soft host-throughput floor in dispatched events/sec
     * (--host-gate=N; 0 = off). Falling below it prints a WARNING but
     * never changes the exit code: host time is machine-dependent.
     */
    std::uint64_t hostGateEventsPerSec = 0;
    /** @} */

    /** Fault injection, set by --chaos / --chaos-seed. */
    std::optional<sys::ChaosConfig> chaos;

    /**
     * Parse @p flag's "=value" tail as an unsigned integer. Rejects
     * non-numeric input, trailing garbage, overflow, and values
     * outside [min, max] with a friendly message and exit code 2 —
     * never an uncaught std::stoul throw.
     */
    static std::uint64_t
    parseNum(const std::string &arg, std::size_t eq, const char *flag,
             std::uint64_t min, std::uint64_t max)
    {
        const std::string text = arg.substr(eq);
        errno = 0;
        char *end = nullptr;
        const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
        if (text.empty() || end != text.c_str() + text.size() ||
            text[0] == '-' || errno == ERANGE || v < min || v > max) {
            std::cerr << "error: " << flag << " wants an integer in ["
                      << min << ", " << max << "], got '" << text
                      << "'\n";
            std::exit(2);
        }
        return v;
    }

    /**
     * @param notes an optional bench-specific line appended to the
     *        --help output — the place to declare flags this bench
     *        pins or ignores (perf_gate pins scale/seed/sample, the
     *        single-workload figures ignore --workload).
     */
    static Options
    parse(int argc, char **argv, const char *notes = nullptr)
    {
        Options opt;
        std::string chaos_spec;
        std::optional<std::uint64_t> chaos_seed;
        std::vector<std::string> seen;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            // Every flag is single-shot except --workload, which
            // accumulates a restriction list. A duplicate almost
            // always means a sweep script silently overriding its own
            // earlier value, so it is an error rather than
            // last-one-wins.
            const std::string key = arg.substr(0, arg.find('='));
            if (key != "--workload" &&
                std::find(seen.begin(), seen.end(), key) != seen.end()) {
                std::cerr << "error: duplicate flag " << key
                          << " (only --workload may repeat)\n";
                std::exit(2);
            }
            seen.push_back(key);
            if (arg.rfind("--scale=", 0) == 0) {
                // 0 would divide every footprint by zero downstream.
                opt.scaleDiv = unsigned(
                    parseNum(arg, 8, "--scale", 1, 1u << 20));
            } else if (arg.rfind("--seed=", 0) == 0) {
                opt.seed = parseNum(arg, 7, "--seed", 0,
                                    std::uint64_t(-1));
            } else if (arg.rfind("--jobs=", 0) == 0) {
                opt.jobs = unsigned(
                    parseNum(arg, 7, "--jobs", 1, 1024));
            } else if (arg == "--csv") {
                opt.csv = true;
            } else if (arg.rfind("--workload=", 0) == 0) {
                opt.workloads.push_back(arg.substr(11));
            } else if (arg.rfind("--trace=", 0) == 0) {
                opt.traceFile = arg.substr(8);
            } else if (arg == "--trace-all") {
                opt.traceAllCategories = true;
            } else if (arg.rfind("--report=", 0) == 0) {
                opt.reportFile = arg.substr(9);
            } else if (arg.rfind("--samples=", 0) == 0) {
                opt.samplesFile = arg.substr(10);
            } else if (arg.rfind("--sample=", 0) == 0) {
                opt.samplePeriod = Tick(parseNum(arg, 9, "--sample", 0,
                                                 std::uint64_t(-1)));
            } else if (arg == "--page-stats") {
                opt.pageStats = true;
            } else if (arg.rfind("--timeseries=", 0) == 0) {
                opt.timeseriesTick = Tick(parseNum(
                    arg, 13, "--timeseries", 0, std::uint64_t(-1)));
            } else if (arg == "--host-prof") {
                opt.hostProf = true;
            } else if (arg.rfind("--host-prof=", 0) == 0) {
                opt.hostProf = true;
                opt.hostProfFile = arg.substr(12);
            } else if (arg == "--progress") {
                opt.progress = true;
            } else if (arg.rfind("--host-gate=", 0) == 0) {
                opt.hostGateEventsPerSec = parseNum(
                    arg, 12, "--host-gate", 1, std::uint64_t(-1));
                opt.hostProf = true; // the gate needs the profiler
            } else if (arg.rfind("--chaos=", 0) == 0) {
                chaos_spec = arg.substr(8);
            } else if (arg.rfind("--chaos-seed=", 0) == 0) {
                chaos_seed = parseNum(arg, 13, "--chaos-seed", 0,
                                      std::uint64_t(-1));
            } else if (arg.rfind("--log=", 0) == 0) {
                const std::string lvl = arg.substr(6);
                if (lvl == "error")
                    sim::Log::setLevel(sim::LogLevel::Error);
                else if (lvl == "warn")
                    sim::Log::setLevel(sim::LogLevel::Warn);
                else if (lvl == "info")
                    sim::Log::setLevel(sim::LogLevel::Info);
                else if (lvl == "trace")
                    sim::Log::setLevel(sim::LogLevel::Trace);
                else
                    std::cerr << "unknown log level '" << lvl
                              << "' (error|warn|info|trace)\n";
            } else if (arg == "--help" || arg == "-h") {
                std::cout << "flags: --scale=N --seed=N --jobs=N --csv"
                             " --workload=ABBV (repeatable)"
                             " --trace=FILE [--trace-all]"
                             " --report=FILE --samples=FILE"
                             " --sample=N --page-stats --timeseries=N"
                             " --host-prof[=FILE] --host-gate=N"
                             " --progress --log=LEVEL"
                             " --chaos=SPEC --chaos-seed=N\n";
                if (notes)
                    std::cout << "note: " << notes << "\n";
                std::exit(0);
            } else {
                std::cerr << "warning: unrecognized flag '" << arg
                          << "' ignored (see --help)\n";
            }
        }
        if (!chaos_spec.empty()) {
            auto cc = sys::ChaosConfig::parse(chaos_spec);
            if (!cc) {
                std::cerr << "error: malformed --chaos spec '"
                          << chaos_spec
                          << "' (a rate in [0,1] or key=value pairs; "
                             "see --help)\n";
                std::exit(2);
            }
            if (chaos_seed)
                cc->seed = *chaos_seed;
            opt.chaos = *cc;
        } else if (chaos_seed) {
            std::cerr << "warning: --chaos-seed without --chaos has no "
                         "effect\n";
        }
        if (opt.workloads.empty())
            opt.workloads = wl::workloadNames();
        return opt;
    }

    /** True when any run should carry a sampler. */
    bool
    wantSamples() const
    {
        return samplePeriod > 0 &&
               (!reportFile.empty() || !samplesFile.empty());
    }

    wl::WorkloadConfig
    workloadConfig() const
    {
        wl::WorkloadConfig cfg;
        cfg.scaleDiv = scaleDiv;
        cfg.seed = seed;
        return cfg;
    }
};

/** The run-label policy half ("griffin" / "first-touch"). */
inline const char *
policyName(const sys::SystemConfig &scfg)
{
    return scfg.policy == sys::PolicyKind::Griffin ? "griffin"
                                                   : "first-touch";
}

/**
 * Process-lifetime observability state for a bench binary. Every run
 * deposits its own fragments — trace session, report JSON, samples
 * CSV — under a mutex, keyed by submission index; the files are
 * written at program exit by merging the fragments in index order.
 * Concurrent runs therefore serialize only a cheap hand-off, and the
 * merged output is independent of completion order.
 */
class ObsState
{
  public:
    explicit ObsState(const Options &opt)
        : _traceFile(opt.traceFile), _reportFile(opt.reportFile),
          _samplesFile(opt.samplesFile),
          _hostProfFile(opt.hostProfFile), _hostProf(opt.hostProf),
          _hostGateEventsPerSec(opt.hostGateEventsPerSec),
          _categories(opt.traceAllCategories ? obs::allCategories
                                             : obs::defaultCategories)
    {
    }

    ~ObsState()
    {
        // Per-run profiles merge in slot (= submission) order, so
        // bucket ordering is deterministic regardless of completion
        // order.
        obs::HostProfile host_total;
        for (const Slot &slot : _slots) {
            if (slot.hostProfile.enabled)
                host_total.merge(slot.hostProfile);
        }
        if (_hostProf && host_total.enabled)
            printHostSummary(host_total);
        if (!_traceFile.empty()) {
            std::vector<const obs::TraceSession *> sessions;
            std::size_t events = 0;
            for (const Slot &slot : _slots) {
                sessions.push_back(slot.trace.get());
                if (slot.trace)
                    events += slot.trace->eventCount();
            }
            std::ofstream os(_traceFile);
            obs::TraceSession::writeMerged(os, sessions);
            std::cerr << "trace: " << _traceFile << " (" << events
                      << " events)\n";
        }
        if (!_reportFile.empty()) {
            obs::json::Value runs = obs::json::Value::array();
            for (Slot &slot : _slots) {
                if (slot.hasReport)
                    runs.push(std::move(slot.report));
            }
            obs::json::Value doc = sys::reportDocument(std::move(runs));
            std::ofstream os(_reportFile);
            os << doc.dump(2) << "\n";
            std::cerr << "report: " << _reportFile << "\n";
        }
        if (!_samplesFile.empty()) {
            std::string csv;
            for (const Slot &slot : _slots)
                csv += slot.samplesCsv;
            if (csv.empty()) {
                std::cerr << "samples: nothing sampled (is --sample=0?), "
                          << "not writing " << _samplesFile << "\n";
            } else {
                std::ofstream os(_samplesFile);
                os << csv;
                std::cerr << "samples: " << _samplesFile << "\n";
            }
        }
        if (!_hostProfFile.empty()) {
            if (!host_total.enabled) {
                std::cerr << "host-prof: no runs were profiled, not "
                          << "writing " << _hostProfFile << "\n";
            } else {
                std::ofstream os(_hostProfFile);
                os << host_total.folded();
                std::cerr << "host-prof: " << _hostProfFile << " ("
                          << host_total.buckets.size() << " buckets, "
                          << host_total.events << " dispatches)\n";
            }
        }
    }

    bool tracing() const { return !_traceFile.empty(); }
    std::uint32_t categories() const { return _categories; }

    /** Claim the next submission-ordered slot (main thread). */
    std::size_t
    reserveSlot()
    {
        std::lock_guard<std::mutex> guard(_mu);
        _slots.emplace_back();
        return _slots.size() - 1;
    }

    /**
     * Deposit one run's fragments (worker thread, after the run).
     * @p trace may be null; @p sampler may be null.
     */
    void
    addRun(std::size_t slot, const std::string &label,
           const sys::SystemConfig &scfg, const sys::RunResult &result,
           const obs::Sampler *sampler,
           std::shared_ptr<obs::TraceSession> trace)
    {
        std::lock_guard<std::mutex> guard(_mu);
        Slot &s = _slots[slot];
        if (!_reportFile.empty()) {
            s.report = sys::runReportJson(label, scfg, result, sampler);
            s.hasReport = true;
        }
        if (!_samplesFile.empty() && sampler)
            s.samplesCsv = "# " + label + "\n" + sampler->csv();
        if (result.hostProfile.enabled)
            s.hostProfile = result.hostProfile;
        s.trace = std::move(trace);
    }

  private:
    struct Slot
    {
        obs::json::Value report;
        bool hasReport = false;
        std::string samplesCsv;
        obs::HostProfile hostProfile;
        std::shared_ptr<obs::TraceSession> trace;
    };

    std::string _traceFile, _reportFile, _samplesFile, _hostProfFile;
    bool _hostProf;
    std::uint64_t _hostGateEventsPerSec;
    std::uint32_t _categories;

    std::mutex _mu;
    std::vector<Slot> _slots;

    /**
     * The --host-prof summary of @p total on stderr (host wall times
     * are machine-dependent, so they stay out of the deterministic
     * stdout contract) plus the --host-gate floor, which only warns:
     * the exit code never changes.
     */
    void
    printHostSummary(const obs::HostProfile &total) const
    {
        std::ostringstream os;
        os << "host-prof: " << total.events << " dispatches, "
           << sys::Table::num(total.eventsPerSec() / 1e6, 2)
           << "M events/sec, "
           << sys::Table::num(total.attributedFraction() * 100.0, 1)
           << "% attributed, "
           << sys::Table::num(total.obsFraction() * 100.0, 1)
           << "% telemetry overhead\n";
        std::vector<obs::HostProfile::Bucket> top = total.buckets;
        std::sort(top.begin(), top.end(),
                  [](const auto &a, const auto &b) {
                      return a.selfNs != b.selfNs ? a.selfNs > b.selfNs
                                                  : a.name() < b.name();
                  });
        if (top.size() > 5)
            top.resize(5);
        std::size_t shown = 0;
        for (const auto &b : top) {
            os << "  top" << ++shown << ": " << b.name() << "  "
               << sys::Table::num(double(b.selfNs) / 1e6, 1) << " ms ("
               << b.count << " events)\n";
        }
        std::cerr << os.str();
        if (_hostGateEventsPerSec > 0 &&
            total.eventsPerSec() < double(_hostGateEventsPerSec)) {
            std::cerr << "WARNING: host throughput "
                      << sys::Table::num(total.eventsPerSec(), 0)
                      << " events/sec below --host-gate="
                      << _hostGateEventsPerSec
                      << " (soft gate: warning only)\n";
        }
    }
};

/** The bench-wide ObsState; the first call's options stick. */
inline ObsState &
obsState(const Options &opt)
{
    static ObsState state(opt);
    return state;
}

/**
 * A batch of independent runs. add() every run of the figure, then
 * run() once; results come back in submission order, and each run's
 * observability fragments land in the process-wide ObsState.
 *
 *   bench::Sweep sweep(opt);
 *   const auto base = sweep.add("MT", sys::SystemConfig::baseline());
 *   const auto grif = sweep.add("MT", sys::SystemConfig::griffinDefault());
 *   const auto &rs = sweep.run();
 *   ... rs[base].cycles, rs[grif].cycles ...
 */
class Sweep
{
  public:
    explicit Sweep(const Options &opt)
        : _opt(opt), _runner(opt.jobs), _obs(obsState(opt))
    {
    }

    /**
     * Submit one run of @p name under @p scfg.
     *
     * @param dim  the distinguishing config dimension for sweeps that
     *             run the same workload/policy more than once
     *             ("gpus=4", "alpha=0.25"); it keeps run labels
     *             unique, which sys::compare enforces.
     * @param setup optional extra per-run setup (access probes, ...),
     *             invoked on the worker thread before the run.
     * @return the submission index into run()'s result vector.
     */
    std::size_t
    add(const std::string &name, const sys::SystemConfig &scfg,
        const std::string &dim = std::string(),
        std::function<void(sys::MultiGpuSystem &)> setup = nullptr)
    {
        bool known = false;
        for (const auto &w : wl::workloadNames())
            known = known || w == name;
        if (!known) {
            std::cerr << "unknown workload: " << name << "\n";
            std::exit(1);
        }

        std::string label = name + "/" + policyName(scfg);
        if (!dim.empty())
            label += "/" + dim;

        const std::size_t slot = _obs.reserveSlot();

        // Per-run sinks, created on the main thread so fragments are
        // slot-ordered, installed and filled on the worker thread.
        std::shared_ptr<obs::TraceSession> trace;
        if (_obs.tracing()) {
            trace = std::make_shared<obs::TraceSession>(
                _obs.categories());
            trace->beginProcess(label);
        }
        std::shared_ptr<obs::Sampler> sampler;
        if (_opt.wantSamples())
            sampler = std::make_shared<obs::Sampler>();
        const Tick period = _opt.samplePeriod;

        sys::SweepJob job;
        job.label = label;
        job.config = scfg;
        if (_opt.chaos)
            job.config.chaos = *_opt.chaos;
        if (_opt.pageStats)
            job.config.pageStats.enabled = true;
        if (_opt.timeseriesTick > 0)
            job.config.timeseriesTick = _opt.timeseriesTick;
        if (_opt.hostProf)
            job.config.hostProf = true;
        job.makeWorkload = [name, wcfg = _opt.workloadConfig()] {
            return wl::makeWorkload(name, wcfg);
        };
        job.preRun = [trace, sampler, period,
                      setup = std::move(setup)](
                         sys::MultiGpuSystem &system) {
            if (trace)
                system.engine().obs().trace = trace.get();
            if (sampler) {
                system.registerProbes(*sampler);
                sampler->start(system.engine(), period);
            }
            if (setup)
                setup(system);
        };
        job.postRun = [obs = &_obs, slot, label, scfg, trace,
                       sampler](sys::MultiGpuSystem &,
                                const sys::RunResult &result) {
            if (sampler)
                sampler->stop();
            obs->addRun(slot, label, scfg, result, sampler.get(),
                        trace);
        };
        return _runner.submit(std::move(job));
    }

    /** Execute the batch; results in submission order. */
    std::vector<sys::RunResult>
    run()
    {
        // Progress is stderr-only UI, never part of the deterministic
        // output contract — and it stays silent when stderr is a pipe
        // so redirected logs don't fill with \r-rewritten lines.
        if (_opt.progress && isatty(fileno(stderr))) {
            const auto start = std::chrono::steady_clock::now();
            _runner.setProgress([start](std::size_t done,
                                        std::size_t total) {
                using namespace std::chrono;
                const double elapsed =
                    duration<double>(steady_clock::now() - start)
                        .count();
                const double eta =
                    done > 0 ? elapsed * double(total - done) /
                                   double(done)
                             : 0.0;
                std::fprintf(stderr,
                             "\rsweep: %zu/%zu runs  %.1fs elapsed"
                             "  ~%.1fs left ",
                             done, total, elapsed, eta);
                if (done == total)
                    std::fputc('\n', stderr);
                std::fflush(stderr);
            });
        }
        return _runner.run();
    }

    unsigned workers() const { return _runner.workers(); }

  private:
    const Options &_opt;
    sys::SweepRunner _runner;
    ObsState &_obs;
};

/**
 * Run one workload on one system configuration, immediately. The
 * serial convenience wrapper over Sweep for benches whose next config
 * depends on the previous result; everything independent should batch
 * runs through a Sweep instead.
 */
inline sys::RunResult
runWorkload(const std::string &name, const sys::SystemConfig &scfg,
            const Options &opt, const std::string &dim = std::string())
{
    Sweep sweep(opt);
    sweep.add(name, scfg, dim);
    return sweep.run().at(0);
}

/** Print a table, optionally followed by CSV. */
inline void
emit(const sys::Table &table, const Options &opt)
{
    std::cout << table.str() << "\n";
    if (opt.csv)
        std::cout << "CSV:\n" << table.csv() << "\n";
}

} // namespace griffin::bench

#endif // GRIFFIN_BENCH_COMMON_HH
