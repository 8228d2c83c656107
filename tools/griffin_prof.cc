/**
 * @file
 * griffin-prof: query the host-side self-profile of a JSON run report
 * written by a bench with --host-prof (commands and flags: --help).
 *
 * Host times are wall-clock and therefore machine-dependent; only the
 * bucket names and dispatch counts are deterministic. Comparing two
 * reports' host numbers is what griffin-compare's warn-only
 * host_profile.host handling is for — this tool just displays them.
 *
 * Exit status follows the shared contract (src/sys/cli.hh); the
 * finding (1) is a selection with no host_profile section at all (the
 * bench ran without --host-prof).
 */

#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/hostprof.hh"
#include "src/sys/cli.hh"

namespace {

using griffin::obs::HostProfile;

std::string
ms(std::uint64_t ns)
{
    return griffin::sys::Table::num(double(ns) / 1e6, 2);
}

void
addSummaryRow(griffin::sys::Table &table, const std::string &label,
              const HostProfile &p)
{
    using griffin::sys::Table;
    table.addRow({label, std::to_string(p.events), ms(p.wallNs),
                  ms(p.dispatchNs),
                  Table::num(p.eventsPerSec() / 1e6, 2),
                  Table::num(p.attributedFraction() * 100.0, 1),
                  Table::num(p.obsFraction() * 100.0, 1)});
}

int
run(int argc, char **argv)
{
    using namespace griffin;

    std::string command, reportFile, runLabel;
    unsigned topN = 10;
    bool csv = false;

    sys::cli::Parser flags(
        "griffin-prof",
        "summarize: per-run dispatches, host wall/dispatch time,\n"
        "           throughput, attribution and telemetry overhead\n"
        "           (+ a TOTAL row when several runs match)\n"
        "top:       the hottest component;event buckets by self time\n"
        "           with each one's share of dispatch time\n"
        "folded:    the merged folded stacks (\"component;event self_ns\")\n"
        "           for flamegraph.pl or speedscope");
    flags.positional("COMMAND", command, "",
                     {"summarize", "top", "folded"})
        .positional("REPORT.json", reportFile,
                    "a bench report written with --host-prof")
        .text("--run", runLabel, "LABEL", "only this run (default: all)")
        .integer("--n", topN, "top's rows per run (default 10)", 1,
                 1u << 20)
        .toggle("--csv", csv, "print CSV instead of aligned text");
    flags.parse(argc, argv);

    // Parse every selected run's host_profile up front; a consumer
    // pointing this tool at an unprofiled report should notice.
    const sys::cli::ReportReader report("griffin-prof", reportFile,
                                        runLabel, "host_profile",
                                        "re-run the bench with --host-prof");
    std::vector<std::pair<std::string, HostProfile>> profiles;
    for (const auto &[label, run, hp] : report.runs) {
        auto profile = sys::hostProfileFromJson(*hp);
        if (!profile) {
            throw sys::cli::UsageError("run \"" + label +
                                       "\": malformed host_profile section");
        }
        profiles.emplace_back(label, std::move(*profile));
    }

    if (command == "summarize") {
        sys::Table table({"run", "dispatches", "wall_ms",
                          "dispatch_ms", "Mevents/s", "attributed%",
                          "obs%"});
        HostProfile total;
        for (const auto &[label, p] : profiles) {
            addSummaryRow(table, label, p);
            total.merge(p);
        }
        if (profiles.size() > 1)
            addSummaryRow(table, "TOTAL", total);
        std::cout << (csv ? table.csv() : table.str());
        return 0;
    }

    if (command == "top") {
        sys::Table table({"run", "bucket", "count", "self_ms",
                          "share%"});
        for (const auto &[label, p] : profiles) {
            for (const auto &b : p.hottest(topN)) {
                const double share =
                    p.dispatchNs > 0
                        ? double(b.selfNs) / double(p.dispatchNs)
                        : 0.0;
                table.addRow({label, b.name(), std::to_string(b.count),
                              ms(b.selfNs),
                              sys::Table::num(share * 100.0, 1)});
            }
        }
        std::cout << (csv ? table.csv() : table.str());
        return 0;
    }

    // folded: one merged profile so repeated buckets across runs
    // collapse into single lines, as flamegraph tooling expects.
    HostProfile total;
    for (const auto &[label, p] : profiles)
        total.merge(p);
    std::cout << total.folded();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return griffin::sys::cli::guard("griffin-prof",
                                    [&] { return run(argc, argv); });
}
