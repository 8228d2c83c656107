/**
 * @file
 * griffin-pages: query the page-lifecycle telemetry of a JSON run
 * report written by a bench with --page-stats / --timeseries=TICKS
 * (commands and flags: --help).
 *
 * Exit status follows the shared contract (src/sys/cli.hh); the
 * finding (1) is a selection with no page_stats section at all (the
 * bench ran without --page-stats).
 */

#include <cstdint>
#include <iostream>
#include <string>

#include "src/sys/cli.hh"

namespace {

using griffin::obs::json::Value;
using griffin::sys::cli::ReportReader;

double
numberAt(const Value &obj, const char *key)
{
    const Value *v = obj.find(key);
    return v ? v->asNumber() : 0.0;
}

/** The count at @p key of @p obj, range-checked (0 when absent). */
std::string
u64(const ReportReader &report, const Value &obj, const char *key)
{
    return std::to_string(report.count(obj.find(key), key));
}

/** The residency timeline as "t:dev > t:dev > ..." (capped). */
std::string
residencyString(const ReportReader &report, const Value &tp)
{
    const Value *res = tp.find("residency");
    if (!res || res->kind() != Value::Kind::Array)
        return "";
    std::string out;
    constexpr std::size_t maxHops = 6;
    const std::size_t n = res->size();
    for (std::size_t i = 0; i < n && i < maxHops; ++i) {
        const Value &hop = res->at(i);
        if (hop.kind() != Value::Kind::Array || hop.size() != 2)
            continue;
        if (!out.empty())
            out += " > ";
        out += std::to_string(report.count(&hop.at(0), "residency")) +
               ":" + std::to_string(report.count(&hop.at(1), "residency"));
    }
    if (n > maxHops)
        out += " > ... (" + std::to_string(n) + " hops)";
    return out;
}

void
addTopPageRows(griffin::sys::Table &table, const ReportReader &report,
               const std::string &label, const Value &pages,
               std::uint64_t n)
{
    for (std::size_t i = 0; i < pages.size() && i < n; ++i) {
        const Value &tp = pages.at(i);
        table.addRow({label, u64(report, tp, "page"),
                      u64(report, tp, "migrations"),
                      u64(report, tp, "churn"),
                      u64(report, tp, "denials"),
                      u64(report, tp, "last_location"),
                      residencyString(report, tp)});
    }
}

int
run(int argc, char **argv)
{
    using namespace griffin;

    std::string command, reportFile, runLabel;
    std::string by = "migrations";
    unsigned topN = 0; // 0 = the report's own top-N
    bool csv = false;

    sys::cli::Parser flags(
        "griffin-pages",
        "summarize: per-run event totals, churn counts, reuse-distance\n"
        "           percentiles and (when present) time-series peaks\n"
        "top:       the hot-page table (most-migrated pages), or the\n"
        "           thrashing table with --by=churn\n"
        "churn:     churn events/pages per run plus the full thrashing\n"
        "           table with residency timelines");
    flags.positional("COMMAND", command, "",
                     {"summarize", "top", "churn"})
        .positional("REPORT.json", reportFile,
                    "a bench report written with --page-stats")
        .text("--run", runLabel, "LABEL", "only this run (default: all)")
        .integer("--n", topN, "rows per run (default: the report's top-N)",
                 1, 1u << 20)
        .choice("--by", by, {"migrations", "churn"}, "top's ranking")
        .toggle("--csv", csv, "print CSV instead of aligned text");
    flags.parse(argc, argv);

    // Every selection must carry telemetry: a gate-style consumer
    // pointing this tool at a --page-stats-less report should notice.
    const ReportReader report("griffin-pages", reportFile, runLabel,
                              "page_stats",
                              "re-run the bench with --page-stats");

    if (command == "summarize") {
        sys::Table table({"run", "pages", "migrated", "commits",
                          "churn", "churn_pages", "max_one_page",
                          "reuse_p50", "reuse_p95", "peak_migr/ival"});
        for (const auto &[label, run, ps] : report.runs) {
            const Value *reuse = ps->find("reuse_distance");
            std::string peak = "-";
            if (const Value *ts = run->find("timeseries")) {
                if (const Value *pk = ts->find("peak"))
                    peak = u64(report, *pk, "migrations");
            }
            table.addRow(
                {label, u64(report, *ps, "pages_tracked"),
                 u64(report, *ps, "pages_migrated"),
                 u64(report, *ps, "total_migrations"),
                 u64(report, *ps, "churn_events"),
                 u64(report, *ps, "churn_pages"),
                 u64(report, *ps, "max_migrations_one_page"),
                 reuse ? sys::Table::num(numberAt(*reuse, "p50"), 0)
                       : "-",
                 reuse ? sys::Table::num(numberAt(*reuse, "p95"), 0)
                       : "-",
                 peak});
        }
        std::cout << (csv ? table.csv() : table.str());
        return 0;
    }

    const char *section =
        command == "churn" || by == "churn" ? "thrashing_pages"
                                            : "hot_pages";
    if (command == "churn") {
        sys::Table counts({"run", "churn_events", "churn_pages",
                           "churn_window"});
        for (const auto &[label, run, ps] : report.runs) {
            counts.addRow({label, u64(report, *ps, "churn_events"),
                           u64(report, *ps, "churn_pages"),
                           u64(report, *ps, "churn_window")});
        }
        std::cout << (csv ? counts.csv() : counts.str());
        if (!csv)
            std::cout << "\n";
    }

    sys::Table table({"run", "page", "migrations", "churn", "denials",
                      "last_loc", "residency"});
    for (const auto &[label, run, ps] : report.runs) {
        const Value *pages = ps->find(section);
        if (!pages || pages->kind() != Value::Kind::Array)
            continue;
        const std::uint64_t n =
            topN ? topN : report.count(ps->find("top_n"), "top_n");
        addTopPageRows(table, report, label, *pages, n ? n : 16);
    }
    std::cout << (csv ? table.csv() : table.str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return griffin::sys::cli::guard("griffin-pages",
                                    [&] { return run(argc, argv); });
}
