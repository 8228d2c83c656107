/**
 * @file
 * griffin-compare: diff two JSON run reports and gate on regressions
 * (flags: --help). Host-time metrics such as host_events_per_sec are
 * warn-only even under --fail-on. With no --fail-on the tool only
 * prints drift, and still fails on mismatched run sets.
 *
 * Exit status follows the shared contract (src/sys/cli.hh): 1 is a
 * failed check or run matching; an invalid comparison (duplicate run
 * labels: there is no way to tell which pair was compared) is 2.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "src/sys/cli.hh"
#include "src/sys/compare.hh"

namespace {

using namespace griffin;

int
run(int argc, char **argv)
{
    std::string refFile, curFile, verdictFile;
    std::vector<sys::Threshold> thresholds;
    bool quiet = false;
    bool csv = false;

    const auto threshold = [&thresholds](bool warnOnly) {
        return [&thresholds, warnOnly](const std::string &spec) {
            auto t = sys::parseThreshold(spec);
            if (!t) {
                throw sys::cli::UsageError("bad threshold \"" + spec +
                                           "\" (want METRIC:[+|-]P%)");
            }
            t->warnOnly = warnOnly;
            thresholds.push_back(std::move(*t));
        };
    };
    sys::cli::Parser flags(
        "griffin-compare",
        "e.g. griffin-compare ref.json cur.json --fail-on cycles:0% "
        "--fail-on fault_p95:+5%");
    flags.positional("REF.json", refFile, "the reference report")
        .positional("CUR.json", curFile, "the report under test")
        .custom("--fail-on", "METRIC:[+|-]P%",
                "fail when METRIC drifts beyond P% (+ up only, - down only)",
                true, threshold(false))
        .custom("--warn-on", "METRIC:[+|-]P%",
                "like --fail-on, but a breach only warns", true,
                threshold(true))
        .output("--verdict", verdictFile, "machine-readable JSON verdict")
        .toggle("--csv", csv, "print the checks as CSV (drift stays text)")
        .toggle("--quiet", quiet, "print nothing; exit status only", "-q");
    flags.parse(argc, argv);

    const sys::CompareResult result = sys::compareReports(
        sys::cli::loadJson(refFile), sys::cli::loadJson(curFile),
        thresholds);

    if (!verdictFile.empty()) {
        std::ofstream os(verdictFile);
        os << result.verdictJson().dump(2) << "\n";
        if (!os)
            throw sys::cli::UsageError("cannot write " + verdictFile);
    }

    if (!quiet) {
        for (const std::string &e : result.errors)
            std::cout << "ERROR  " << e << "\n";
        for (const std::string &w : result.warnings)
            std::cout << "WARN   " << w << "\n";
        const auto status = [](const sys::CheckResult &c) {
            return c.warnedOnly ? "WARN" : c.ok ? "ok" : "FAIL";
        };
        if (csv) {
            sys::Table table({"status", "run", "metric", "ref", "cur",
                              "deltaPct"});
            for (const auto &c : result.checks) {
                if (!c.note.empty()) {
                    table.addRow({status(c), c.run, c.metric, "", "",
                                  c.note});
                    continue;
                }
                table.addRow({status(c), c.run, c.metric,
                              sys::Table::num(c.ref, 6),
                              sys::Table::num(c.cur, 6),
                              sys::Table::num(c.deltaPct, 2)});
            }
            std::cout << table.csv();
        } else {
            for (const auto &c : result.checks) {
                if (!c.note.empty()) {
                    std::printf("%-6s %-24s %-14s %s\n", status(c),
                                c.run.c_str(), c.metric.c_str(),
                                c.note.c_str());
                    continue;
                }
                std::printf(
                    "%-6s %-24s %-14s %14.6g -> %-14.6g %+.2f%%\n",
                    status(c), c.run.c_str(), c.metric.c_str(), c.ref,
                    c.cur, c.deltaPct);
            }
        }
        if (!result.drifts.empty()) {
            std::cout << "drift (largest " << result.drifts.size()
                      << " changes, informational):\n";
            for (const auto &d : result.drifts) {
                std::printf("       %-24s %-38s %14.6g -> %-14.6g"
                            " %+.2f%%\n",
                            d.run.c_str(), d.path.c_str(), d.ref, d.cur,
                            d.deltaPct);
            }
        }
        std::cout << (result.fatal ? "FATAL"
                                   : result.pass ? "PASS" : "FAIL")
                  << "\n";
    }

    if (result.fatal)
        return sys::cli::exitUsage;
    return result.pass ? sys::cli::exitOk : sys::cli::exitFinding;
}

} // namespace

int
main(int argc, char **argv)
{
    return griffin::sys::cli::guard("griffin-compare",
                                    [&] { return run(argc, argv); });
}
