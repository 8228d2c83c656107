/**
 * @file
 * griffin-fuzz: randomized differential testing for the simulator.
 *
 * Draws one scenario per seed (sys/scenario_gen.hh), runs each under
 * every invariant oracle plus the --jobs=1 vs --jobs=N vs
 * reference-scheduler differentials (sys/oracle.hh), and prints a
 * one-line repro command for every failure. Seeds run in batches of
 * --batch so the parallel differential actually exercises concurrent
 * sweeps. Flags: --help.
 *
 * Exit status follows the shared contract (src/sys/cli.hh); the
 * finding (1) is at least one failing scenario.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/sys/cli.hh"
#include "src/sys/oracle.hh"
#include "src/sys/scenario_gen.hh"

namespace {

void
printFailure(const griffin::sys::ScenarioVerdict &verdict)
{
    for (const auto &f : verdict.findings) {
        std::printf("FAIL seed=0x%llx oracle=%s\n",
                    static_cast<unsigned long long>(
                        verdict.scenario.seed),
                    f.oracle.c_str());
        std::printf("     %s\n", f.detail.c_str());
    }
    std::printf("     scenario: %s\n",
                verdict.scenario.describe().c_str());
    std::printf("repro: %s\n", verdict.scenario.reproCommand().c_str());
}

/** True when the scenario built from (seed, pinned) still fails. */
bool
stillFails(std::uint64_t seed, const std::vector<std::string> &pinned,
           const griffin::sys::FuzzOptions &options)
{
    const auto verdicts = griffin::sys::runFuzzBatch(
        {griffin::sys::makeScenario(seed, pinned)}, options);
    return !verdicts[0].ok();
}

/**
 * Shrink a failing seed: walk the knob list, pin each knob in turn,
 * and keep the pin when the failure survives without it varying. The
 * knobs left unpinned at the end are the minimal trigger set.
 */
void
shrinkSeed(std::uint64_t seed, std::vector<std::string> pinned,
           const griffin::sys::FuzzOptions &options)
{
    std::printf("shrinking seed 0x%llx...\n",
                static_cast<unsigned long long>(seed));
    for (const std::string &knob : griffin::sys::scenarioKnobs()) {
        if (std::find(pinned.begin(), pinned.end(), knob) !=
            pinned.end())
            continue;
        std::vector<std::string> trial = pinned;
        trial.push_back(knob);
        if (stillFails(seed, trial, options)) {
            pinned = std::move(trial);
            std::printf("  pin %-10s -> still fails\n", knob.c_str());
        } else {
            std::printf("  pin %-10s -> failure depends on it\n",
                        knob.c_str());
        }
    }
    const auto scenario = griffin::sys::makeScenario(seed, pinned);
    std::printf("shrunk: %s\n", scenario.reproCommand().c_str());
    std::printf("        %s\n", scenario.describe().c_str());
}

int
run(int argc, char **argv)
{
    using namespace griffin;

    std::uint64_t seeds = 16;
    std::uint64_t firstSeed = 1;
    std::uint64_t batch = 16;
    std::uint64_t durationSecs = 0;
    bool shrink = false;
    bool corpus = false;
    bool describeOnly = false;
    bool quiet = false;
    bool listKnobs = false;
    std::vector<std::string> pinned;
    sys::FuzzOptions options;

    sys::cli::Parser flags(
        "griffin-fuzz",
        "e.g. griffin-fuzz --seeds=200 --jobs=8\n"
        "     griffin-fuzz --seed=0x2a --seeds=1 --shrink");
    flags.integer("--seeds", seeds, "seeds to run (default 16)")
        .integer("--seed", firstSeed,
                 "first seed (default 1; decimal or 0x hex)")
        .integer("--jobs", options.jobs,
                 "workers of the parallel differential (default 8)", 1, 1024)
        .integer("--batch", batch, "seeds per batch (default 16)", 1,
                 1u << 16)
        .integer("--duration", durationSecs,
                 "keep drawing fresh seeds for N wall seconds (overrides "
                 "--seeds as the stop condition)",
                 0, 1u << 30)
        .custom("--pin", "KNOB[,KNOB...]",
                "pin knobs to their defaults (replay a shrunk repro)", true,
                [&pinned](const std::string &list) {
                    std::istringstream knobs(list);
                    for (std::string knob; std::getline(knobs, knob, ',');) {
                        if (knob.empty())
                            continue;
                        if (!sys::isScenarioKnob(knob)) {
                            throw sys::cli::UsageError(
                                "unknown knob \"" + knob +
                                "\" (see --list-knobs)");
                        }
                        pinned.push_back(knob);
                    }
                })
        .toggle("--shrink", shrink,
                "pin knobs one at a time, keeping each pin that preserves "
                "a failure; prints the minimized repro")
        .toggle("--corpus", corpus, "run the 16 pinned corpus seeds")
        .toggle("--describe", describeOnly, "print the scenarios, run none")
        .toggle("--list-knobs", listKnobs, "print the shrinkable knobs")
        .toggle("--quiet", quiet, "no per-batch progress lines", "-q");
    flags.parse(argc, argv);
    if (listKnobs) {
        for (const std::string &knob : sys::scenarioKnobs())
            std::cout << knob << "\n";
        return 0;
    }

    // The i-th seed: the corpus or the --seed/--seeds range first, then
    // (under --duration) fresh seeds past the range, drawn on demand.
    const std::vector<std::uint64_t> corpusSeeds = sys::fuzzCorpusSeeds();
    const std::uint64_t scheduled = corpus ? corpusSeeds.size() : seeds;
    const auto seedAt = [&](std::uint64_t i) {
        if (!corpus)
            return firstSeed + i;
        return i < scheduled ? corpusSeeds[i]
                             : firstSeed + seeds + (i - scheduled);
    };

    if (describeOnly) {
        for (std::uint64_t i = 0; i < scheduled; ++i) {
            const auto sc = sys::makeScenario(seedAt(i), pinned);
            std::printf("seed=0x%llx %s\n",
                        static_cast<unsigned long long>(sc.seed),
                        sc.describe().c_str());
        }
        return 0;
    }

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(durationSecs);
    const auto expired = [&] {
        return durationSecs > 0 && std::chrono::steady_clock::now() >= deadline;
    };

    std::uint64_t ran = 0;
    std::vector<std::uint64_t> failingSeeds;
    std::uint64_t next = 0;

    while (next < scheduled || (durationSecs > 0 && !expired())) {
        std::vector<sys::Scenario> scenarios;
        while (scenarios.size() < batch &&
               (next < scheduled || durationSecs > 0))
            scenarios.push_back(sys::makeScenario(seedAt(next++), pinned));

        const auto verdicts = sys::runFuzzBatch(scenarios, options);
        for (const auto &v : verdicts) {
            ++ran;
            if (v.ok())
                continue;
            failingSeeds.push_back(v.scenario.seed);
            printFailure(v);
        }
        if (!quiet)
            std::printf("fuzz: %llu scenarios, %llu failed\n",
                        static_cast<unsigned long long>(ran),
                        static_cast<unsigned long long>(failingSeeds.size()));
        if (durationSecs > 0 && expired() && next >= scheduled)
            break;
    }

    if (shrink)
        for (const std::uint64_t seed : failingSeeds)
            shrinkSeed(seed, pinned, options);

    return failingSeeds.empty() ? sys::cli::exitOk : sys::cli::exitFinding;
}

} // namespace

int
main(int argc, char **argv)
{
    return griffin::sys::cli::guard("griffin-fuzz",
                                    [&] { return run(argc, argv); });
}
