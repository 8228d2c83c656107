/**
 * @file
 * Shared harness for the figure-regeneration benches: flag parsing,
 * the parallel sweep harness, and per-run observability capture so
 * one binary can print a whole paper figure.
 *
 * Flags: the table in Options::fromArgs (`BENCH --help` prints it).
 * Bad input exits 2 before any run starts (src/sys/cli.hh).
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
#include <cassert>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
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
#include "src/sys/cli.hh"
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
    std::vector<std::string> workloads; // default: every choice

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
     * Parse the common flags of the table below (src/sys/cli.hh);
     * exit 0 after --help and 2 on bad input. @p notes is appended to
     * --help: the place to declare flags this bench pins or ignores
     * (perf_gate pins scale/seed/sample, fig01/fig10 ignore
     * --workload). @p workloadSet narrows --workload's choices and
     * its default (empty: all ten).
     */
    static Options
    parse(int argc, char **argv, const char *notes = nullptr,
          std::vector<std::string> workloadSet = {})
    {
        if (workloadSet.empty())
            workloadSet = wl::workloadNames();
        // In sim::LogLevel order: a level's index is its enum value.
        const std::vector<std::string> levels = {"error", "warn", "info",
                                                 "trace"};
        Options opt;
        std::string log_level;
        std::optional<std::uint64_t> chaos_seed;
        sys::cli::Parser flags(argv[0],
                               notes ? std::string("note: ") + notes : "");
        flags
            .integer("--scale", opt.scaleDiv,
                     "footprint divisor vs the paper (default 32)", 1,
                     1u << 20)
            .integer("--seed", opt.seed, "master seed (default 42)")
            .integer("--jobs", opt.jobs,
                     "concurrent runs (default: hardware threads)", 1, 1024)
            .toggle("--csv", opt.csv, "also emit CSV after each table")
            .choices("--workload", opt.workloads, workloadSet,
                     "restrict to a Table III workload (default: all)")
            .output("--trace", opt.traceFile,
                    "Chrome trace-event JSON of every run (Perfetto)")
            .toggle("--trace-all", opt.traceAllCategories,
                    "trace the hot categories too (net, dca)")
            .output("--report", opt.reportFile, "JSON run report")
            .output("--samples", opt.samplesFile,
                    "time-series CSV, one section per run")
            .integer("--sample", opt.samplePeriod,
                     "sampling period in cycles (default 10000; 0 = off)")
            .toggle("--page-stats", opt.pageStats,
                    "per-page lifecycle telemetry (report page_stats)")
            .integer("--timeseries", opt.timeseriesTick,
                     "event time-series interval in cycles (0 = off)")
            .optionalValue(
                "--host-prof", "FILE",
                "host self-profile: report host_profile, a stderr "
                "summary at exit, folded stacks to FILE",
                [&opt](const std::string &file) {
                    opt.hostProf = true;
                    if (!file.empty())
                        sys::cli::checkWritable("--host-prof", file);
                    opt.hostProfFile = file;
                })
            .integer("--host-gate", opt.hostGateEventsPerSec,
                     "warn below N host events/sec (implies --host-prof)", 1)
            .toggle("--progress", opt.progress,
                    "sweep progress on stderr when it is a terminal")
            .choice("--log", log_level, levels,
                    "stderr log level ([tick]-prefixed while a system runs)")
            .custom("--chaos", "SPEC",
                    "inject faults: a rate (\"0.01\") or key=value pairs "
                    "(\"dma=0.5,link=0.02,timeout=200000\")",
                    false,
                    [&opt](const std::string &spec) {
                        opt.chaos = sys::ChaosConfig::parse(spec);
                        if (!opt.chaos) {
                            throw sys::cli::UsageError(
                                "malformed --chaos spec '" + spec +
                                "' (a rate in [0,1] or key=value pairs)");
                        }
                    })
            .integer("--chaos-seed", chaos_seed,
                     "seed of the fault injector's private RNG streams");
        bool parsed = false;
        const int code = sys::cli::guard(argv[0], [&] {
            flags.parse(argc, argv);
            parsed = true;
            return sys::cli::exitOk;
        });
        if (!parsed)
            std::exit(code);
        if (chaos_seed && opt.chaos)
            opt.chaos->seed = *chaos_seed;
        else if (chaos_seed)
            std::cerr << "warning: --chaos-seed without --chaos has no effect\n";
        if (opt.hostGateEventsPerSec > 0)
            opt.hostProf = true; // the gate needs the profiler
        if (!log_level.empty()) {
            sim::Log::setLevel(sim::LogLevel(
                std::find(levels.begin(), levels.end(), log_level) -
                levels.begin()));
        }
        if (opt.workloads.empty())
            opt.workloads = workloadSet;
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
    explicit ObsState(const Options &opt) : _opt(opt) {}

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
        if (_opt.hostProf && host_total.enabled)
            printHostSummary(host_total);
        if (tracing()) {
            std::vector<const obs::TraceSession *> sessions;
            std::size_t events = 0;
            for (const Slot &slot : _slots) {
                sessions.push_back(slot.trace.get());
                if (slot.trace)
                    events += slot.trace->eventCount();
            }
            writeFile(_opt.traceFile,
                      "trace: " + _opt.traceFile + " (" +
                          std::to_string(events) + " events)",
                      [&](std::ostream &os) {
                          obs::TraceSession::writeMerged(os, sessions);
                      });
        }
        if (!_opt.reportFile.empty()) {
            obs::json::Value runs = obs::json::Value::array();
            for (Slot &slot : _slots) {
                if (slot.hasReport)
                    runs.push(std::move(slot.report));
            }
            const obs::json::Value doc = sys::reportDocument(std::move(runs));
            writeFile(_opt.reportFile, "report: " + _opt.reportFile,
                      [&](std::ostream &os) { os << doc.dump(2) << "\n"; });
        }
        if (!_opt.samplesFile.empty()) {
            std::string csv;
            for (const Slot &slot : _slots)
                csv += slot.samplesCsv;
            if (csv.empty()) {
                std::cerr << "samples: nothing sampled (is --sample=0?), "
                          << "not writing " << _opt.samplesFile << "\n";
            } else {
                writeFile(_opt.samplesFile, "samples: " + _opt.samplesFile,
                          [&](std::ostream &os) { os << csv; });
            }
        }
        if (!_opt.hostProfFile.empty()) {
            if (!host_total.enabled) {
                std::cerr << "host-prof: no runs were profiled, not "
                          << "writing " << _opt.hostProfFile << "\n";
            } else {
                writeFile(_opt.hostProfFile,
                          "host-prof: " + _opt.hostProfFile + " (" +
                              std::to_string(host_total.buckets.size()) +
                              " buckets, " +
                              std::to_string(host_total.events) +
                              " dispatches)",
                          [&](std::ostream &os) { os << host_total.folded(); });
            }
        }
    }

    bool tracing() const { return !_opt.traceFile.empty(); }
    std::uint32_t
    categories() const
    {
        return _opt.traceAllCategories ? obs::allCategories
                                       : obs::defaultCategories;
    }

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
        if (!_opt.reportFile.empty()) {
            s.report = sys::runReportJson(label, scfg, result, sampler);
            s.hasReport = true;
        }
        if (!_opt.samplesFile.empty() && sampler)
            s.samplesCsv = "# " + label + "\n" + sampler->csv();
        if (result.hostProfile.enabled)
            s.hostProfile = result.hostProfile;
        s.trace = std::move(trace);
    }

  private:
    /**
     * Write @p path through @p fill, then print @p done on stderr, or
     * an error in its place when the write fails (a full disk, say).
     */
    static void
    writeFile(const std::string &path, const std::string &done,
              const std::function<void(std::ostream &)> &fill)
    {
        std::ofstream os(path);
        fill(os);
        os.close();
        std::cerr << (os.fail() ? "error: writing " + path + " failed" : done)
                  << "\n";
    }

    struct Slot
    {
        obs::json::Value report;
        bool hasReport = false;
        std::string samplesCsv;
        obs::HostProfile hostProfile;
        std::shared_ptr<obs::TraceSession> trace;
    };

    const Options _opt;

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
        std::size_t shown = 0;
        for (const auto &b : total.hottest(5)) {
            os << "  top" << ++shown << ": " << b.name() << "  "
               << sys::Table::num(double(b.selfNs) / 1e6, 1) << " ms ("
               << b.count << " events)\n";
        }
        std::cerr << os.str();
        if (_opt.hostGateEventsPerSec > 0 &&
            total.eventsPerSec() < double(_opt.hostGateEventsPerSec)) {
            std::cerr << "WARNING: host throughput "
                      << sys::Table::num(total.eventsPerSec(), 0)
                      << " events/sec below --host-gate="
                      << _opt.hostGateEventsPerSec
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
        // --workload is validated when parsed; this guards the names
        // benches pass themselves.
        [[maybe_unused]] const auto known = wl::workloadNames();
        assert(std::find(known.begin(), known.end(), name) != known.end());

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

  private:
    const Options &_opt;
    sys::SweepRunner _runner;
    ObsState &_obs;
};

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
