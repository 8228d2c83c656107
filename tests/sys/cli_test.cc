/**
 * @file
 * Unit tests for sys/cli, the command-line layer every bench and tool
 * parses through: strict integers, the flag table's contract (unknown
 * and repeated flags, both value forms, choices, positionals, --help),
 * the exit-code mapping, and the report reader's handling of
 * malformed and old-schema reports.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/sys/cli.hh"

using namespace griffin;
using namespace griffin::sys::cli;

namespace {

constexpr std::uint64_t any = std::numeric_limits<std::uint64_t>::max();

/** Run @p parser over a flag list (argv[0] is synthesized). */
void
parse(Parser &parser, std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::string prog = "tool";
    argv.push_back(prog.data());
    for (std::string &a : args)
        argv.push_back(a.data());
    parser.parse(int(argv.size()), argv.data());
}

/** The message of the UsageError that @p fn throws ("" if none). */
template <typename Fn>
std::string
usageError(Fn &&fn)
{
    try {
        fn();
    } catch (const UsageError &e) {
        return e.what();
    }
    return "";
}

/** Open the report at @p path, selecting section "x". */
void
openReport(const std::string &path, const std::string &label = "")
{
    const ReportReader reader("tool", path, label, "x", "");
}

/** Write @p text to a fresh file under the test temp dir. */
std::string
writeTemp(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream(path) << text;
    return path;
}

TEST(CliParseUint, AcceptsDecimalAndHex)
{
    EXPECT_EQ(parseUint("--n", "42", 0, any), 42u);
    EXPECT_EQ(parseUint("--n", "0x2a", 0, any), 42u);
    EXPECT_EQ(parseUint("--n", "0X2A", 0, any), 42u);
    // A leading zero is decimal, not octal.
    EXPECT_EQ(parseUint("--seed", "010", 0, any), 10u);
    EXPECT_EQ(parseUint("--n", "18446744073709551615", 0, any), any);
}

TEST(CliParseUint, RejectsSignsTrailingTextAndOverflow)
{
    for (const char *bad : {"5x", "-1", "+1", " 1", "", "0x", "1.5",
                            "18446744073709551616", "0x1g"}) {
        const std::string msg =
            usageError([&] { parseUint("--n", bad, 0, any); });
        EXPECT_NE(msg.find("--n wants an integer in [0, "),
                  std::string::npos)
            << "'" << bad << "': " << msg;
    }
}

TEST(CliParseUint, EnforcesTheBound)
{
    EXPECT_EQ(parseUint("--jobs", "1024", 1, 1024), 1024u);
    EXPECT_EQ(usageError([] { parseUint("--jobs", "0", 1, 1024); }),
              "--jobs wants an integer in [1, 1024], got '0'");
    EXPECT_EQ(usageError([] { parseUint("--jobs", "1025", 1, 1024); }),
              "--jobs wants an integer in [1, 1024], got '1025'");
}

TEST(CliParser, ValueFlagsTakeBothForms)
{
    std::string a, b;
    unsigned n = 0;
    Parser p("tool");
    p.text("--a", a, "X", "").text("--b", b, "X", "").integer("--n", n, "", 1, 9);
    parse(p, {"--a=one", "--b", "two", "--n", "7"});
    EXPECT_EQ(a, "one");
    EXPECT_EQ(b, "two");
    EXPECT_EQ(n, 7u);
}

TEST(CliParser, RejectsUnknownRepeatedAndMalformedFlags)
{
    const auto failure = [](std::vector<std::string> args) {
        bool on = false;
        std::string text;
        std::vector<std::string> list;
        Parser p("tool");
        p.toggle("--on", on, "")
            .text("--text", text, "X", "")
            .choices("--pick", list, {"a", "b"}, "");
        return usageError([&] { parse(p, args); });
    };
    EXPECT_EQ(failure({"--bogus"}), "unknown flag --bogus (see --help)");
    EXPECT_EQ(failure({"--text=a", "--text=b"}),
              "duplicate flag --text (only --pick may repeat)");
    EXPECT_EQ(failure({"--on", "--on"}),
              "duplicate flag --on (only --pick may repeat)");
    EXPECT_EQ(failure({"--on=1"}), "--on takes no value");
    EXPECT_EQ(failure({"--text"}), "--text wants a value");
    EXPECT_EQ(failure({"--text="}), "--text wants a value");
    EXPECT_EQ(failure({"--pick=c"}), "--pick wants one of a|b, got 'c'");
    EXPECT_EQ(failure({"stray"}), "unexpected argument 'stray' (see --help)");
    EXPECT_EQ(failure({"--pick=a", "--pick=b", "--on"}), "");
}

TEST(CliParser, PositionalsAreRequiredInOrder)
{
    std::string command, file;
    Parser p("tool");
    p.positional("COMMAND", command, "").positional("FILE", file, "");
    EXPECT_EQ(usageError([&] { parse(p, {"top"}); }),
              "missing FILE (see --help)");

    Parser q("tool");
    q.positional("COMMAND", command, "").positional("FILE", file, "");
    parse(q, {"top", "r.json"});
    EXPECT_EQ(command, "top");
    EXPECT_EQ(file, "r.json");
}

TEST(CliParser, OptionalValueTakesOnlyTheEqualsForm)
{
    std::vector<std::string> seen;
    bool csv = false;
    Parser p("tool");
    p.optionalValue("--prof", "FILE", "",
                    [&seen](const std::string &v) { seen.push_back(v); })
        .toggle("--csv", csv, "");
    parse(p, {"--prof", "--csv"});
    Parser q("tool");
    q.optionalValue("--prof", "FILE", "",
                    [&seen](const std::string &v) { seen.push_back(v); });
    parse(q, {"--prof=out.txt"});
    EXPECT_EQ(seen, (std::vector<std::string>{"", "out.txt"}));
    EXPECT_TRUE(csv);
}

TEST(CliParser, HelpIsGeneratedFromTheTable)
{
    bool csv = false;
    std::string by, file;
    Parser p("tool", "a closing note");
    p.positional("FILE", file, "the input")
        .toggle("--csv", csv, "print CSV", "-c")
        .choice("--by", by, {"x", "y"}, "ranking");
    try {
        parse(p, {"--csv", "-h"});
        FAIL() << "no HelpRequested";
    } catch (const HelpRequested &h) {
        EXPECT_EQ(h.text.rfind("usage: tool FILE [flags]\n", 0), 0u);
        for (const char *part : {"FILE", "the input", "-c, --csv",
                                 "--by=x|y", "ranking", "--help",
                                 "a closing note"}) {
            EXPECT_NE(h.text.find(part), std::string::npos) << part;
        }
    }
}

TEST(CliGuard, MapsOutcomesToTheSharedExitCodes)
{
    testing::internal::CaptureStderr();
    EXPECT_EQ(guard("./build/tool", []() -> int { throw UsageError("x"); }),
              2);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "tool: x\n");
    EXPECT_EQ(guard("tool", [] { return exitOk; }), 0);
    EXPECT_EQ(guard("tool", [] { return exitFinding; }), 1);
    EXPECT_EQ(guard("tool", []() -> int { throw UsageError("bad"); }), 2);
    EXPECT_EQ(guard("tool",
                    []() -> int { throw Error(exitFinding, "found"); }),
              1);
    testing::internal::CaptureStdout();
    EXPECT_EQ(guard("tool", []() -> int { throw HelpRequested{"hi\n"}; }),
              0);
    EXPECT_EQ(testing::internal::GetCapturedStdout(), "hi\n");
}

TEST(CliOutput, UnwritablePathIsAUsageErrorAndAProbeLeavesNoFile)
{
    EXPECT_NE(usageError([] {
                  checkWritable("--report", "/nonexistent/dir/x.json");
              }).find("--report: cannot open"),
              std::string::npos);
    const std::string path = ::testing::TempDir() + "cli_probe.json";
    std::remove(path.c_str());
    checkWritable("--report", path);
    EXPECT_FALSE(std::ifstream(path).good());
    // An existing file is left as it was.
    std::ofstream(path) << "kept";
    checkWritable("--report", path);
    std::string text;
    std::ifstream(path) >> text;
    EXPECT_EQ(text, "kept");
    std::remove(path.c_str());
}

TEST(CliReportReader, RunsObjectIsAUsageErrorNotACrash)
{
    // Value::at(i) is unchecked on a non-array, so the enumeration
    // must refuse an object before indexing it.
    const std::string path = writeTemp(
        "runs_object.json", R"({"runs": {"a": {"label": "a"}}})");
    EXPECT_NE(usageError([&] { openReport(path); })
                  .find("no \"runs\" array"),
              std::string::npos);
}

TEST(CliReportReader, RejectsUnreadableAndUnmatchedInput)
{
    EXPECT_EQ(usageError([] { openReport("/nonexistent"); }),
              "cannot open /nonexistent");
    const std::string bad = writeTemp("bad.json", "{");
    EXPECT_EQ(usageError([&] { openReport(bad); }),
              bad + ": parse error");
    const std::string dup = writeTemp(
        "dup.json", R"({"runs": [{"label": "a"}, {"label": "a"}]})");
    EXPECT_NE(usageError([&] { openReport(dup); })
                  .find("duplicate run label"),
              std::string::npos);
    const std::string ok =
        writeTemp("ok.json", R"({"runs": [{"label": "a"}]})");
    EXPECT_EQ(usageError([&] { openReport(ok, "b"); }),
              "no run labelled \"b\" in " + ok);
}

TEST(CliReportReader, KnownOldSchemasDoNotWarn)
{
    for (const int version : {1, 2, 3}) {
        const std::string path = writeTemp(
            "v.json", R"({"schema_version": )" + std::to_string(version) +
                          R"(, "runs": [{"label": "a", "x": {}}]})");
        testing::internal::CaptureStderr();
        openReport(path);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "")
            << "version " << version;
    }
    const std::string future = writeTemp(
        "v99.json",
        R"({"schema_version": 99, "runs": [{"label": "a", "x": {}}]})");
    testing::internal::CaptureStderr();
    openReport(future);
    EXPECT_NE(testing::internal::GetCapturedStderr().find(
                  "tool: warning: report schema_version 99 > known"),
              std::string::npos);
}

TEST(CliReportReader, MissingSectionIsAFindingAndFilteringKeepsOrder)
{
    const std::string path = writeTemp(
        "sections.json",
        R"({"runs": [{"label": "a", "page_stats": {"n": 1}},
                      {"label": "b"},
                      {"label": "c", "page_stats": {"n": 3}}]})");
    const ReportReader all("tool", path, "", "page_stats", "hint");
    ASSERT_EQ(all.runs.size(), 2u);
    EXPECT_EQ(all.runs[0].label, "a");
    EXPECT_EQ(all.runs[1].label, "c");
    EXPECT_EQ(all.runs[1].section->find("n")->asNumber(), 3.0);

    try {
        ReportReader onlyB("tool", path, "b", "page_stats",
                           "re-run with --page-stats");
        FAIL() << "no Error";
    } catch (const Error &e) {
        EXPECT_EQ(e.code, exitFinding);
        EXPECT_EQ(std::string(e.what()),
                  "no page_stats section in the selected runs (re-run "
                  "with --page-stats)");
    }
}

} // namespace

TEST(CliReportReader, CountsAreRangeChecked)
{
    // A report is outside input: a count that no unsigned integer
    // holds must be refused by name, never cast (undefined for a
    // negative or out-of-range double).
    const std::string path = writeTemp(
        "counts.json",
        R"({"runs": [{"label": "a", "page_stats": {
              "pages_tracked": -3, "churn_pages": 2.5,
              "churn_events": 1e30, "top_n": "16",
              "pages_migrated": 7, "big": 18446744073709549568}}]})");
    const ReportReader reader("tool", path, "", "page_stats", "");
    const obs::json::Value &ps = *reader.runs.at(0).section;
    const auto countOf = [&](const char *key) {
        return reader.count(ps.find(key), key);
    };
    EXPECT_EQ(usageError([&] { countOf("pages_tracked"); }),
              path + ": pages_tracked wants an unsigned integer, got -3");
    EXPECT_EQ(usageError([&] { countOf("churn_pages"); }),
              path + ": churn_pages wants an unsigned integer, got 2.5");
    EXPECT_EQ(usageError([&] { countOf("churn_events"); }),
              path + ": churn_events wants an unsigned integer, got 1e+30");
    EXPECT_EQ(usageError([&] { countOf("top_n"); }),
              path + ": top_n wants an unsigned integer, got a non-number");
    EXPECT_EQ(countOf("pages_migrated"), 7u);
    EXPECT_EQ(countOf("big"), 18446744073709549568u);
    EXPECT_EQ(countOf("absent"), 0u);
}
