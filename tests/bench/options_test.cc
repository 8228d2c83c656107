#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "bench/common.hh"

namespace {

using griffin::bench::ObsState;
using griffin::bench::Options;

/**
 * Run Options::parse over a flag list (argv[0] is synthesized), with
 * --workload narrowed to @p workloadSet when it is non-empty.
 */
Options
parseFlags(std::vector<std::string> flags,
           std::vector<std::string> workloadSet = {})
{
    std::vector<char *> argv;
    static std::string prog = "bench";
    argv.push_back(prog.data());
    for (std::string &f : flags)
        argv.push_back(f.data());
    return Options::parse(int(argv.size()), argv.data(), nullptr,
                          std::move(workloadSet));
}

const std::vector<std::string> gateSet = {"MT", "BFS", "SC"};

TEST(Options, ParsesTheCommonFlags)
{
    const Options opt =
        parseFlags({"--scale=64", "--seed=7", "--jobs=2", "--csv"});
    EXPECT_EQ(opt.scaleDiv, 64u);
    EXPECT_EQ(opt.seed, 7u);
    EXPECT_EQ(opt.jobs, 2u);
    EXPECT_TRUE(opt.csv);
}

TEST(OptionsDeathTest, DuplicateValueFlagExitsWithUsageError)
{
    EXPECT_EXIT(parseFlags({"--scale=64", "--scale=32"}),
                ::testing::ExitedWithCode(2), "duplicate flag --scale");
}

TEST(OptionsDeathTest, DuplicateBooleanFlagExitsWithUsageError)
{
    EXPECT_EXIT(parseFlags({"--csv", "--csv"}),
                ::testing::ExitedWithCode(2), "duplicate flag --csv");
}

TEST(OptionsDeathTest, ValueAndValuelessFormsAreTheSameFlag)
{
    // --host-prof and --host-prof=FILE configure one feature; letting
    // the pair through would leave whichever came last half-applied.
    EXPECT_EXIT(parseFlags({"--host-prof", "--host-prof=out.folded"}),
                ::testing::ExitedWithCode(2),
                "duplicate flag --host-prof");
}

TEST(Options, WorkloadStaysRepeatable)
{
    const Options opt = parseFlags({"--workload=MT", "--workload=BFS"});
    ASSERT_EQ(opt.workloads.size(), 2u);
    EXPECT_EQ(opt.workloads[0], "MT");
    EXPECT_EQ(opt.workloads[1], "BFS");
}

TEST(Options, DistinctFlagsWithEqualValuesAreFine)
{
    const Options opt = parseFlags({"--seed=5", "--sample=5"});
    EXPECT_EQ(opt.seed, 5u);
    EXPECT_EQ(opt.samplePeriod, 5u);
}

TEST(OptionsDeathTest, NonNumericValueExitsWithUsageError)
{
    EXPECT_EXIT(parseFlags({"--scale=banana"}),
                ::testing::ExitedWithCode(2), "--scale wants an integer");
}

TEST(OptionsDeathTest, OutOfRangeValueExitsWithUsageError)
{
    // scale=0 would divide every workload footprint by zero.
    EXPECT_EXIT(parseFlags({"--scale=0"}),
                ::testing::ExitedWithCode(2), "--scale wants an integer");
}

TEST(Options, ValueFlagsAlsoTakeTheSpaceForm)
{
    const Options opt = parseFlags({"--scale", "64", "--workload", "MT"});
    EXPECT_EQ(opt.scaleDiv, 64u);
    ASSERT_EQ(opt.workloads.size(), 1u);
    EXPECT_EQ(opt.workloads[0], "MT");
}

TEST(OptionsDeathTest, UnknownFlagExitsWithUsageError)
{
    EXPECT_EXIT(parseFlags({"--bogus"}), ::testing::ExitedWithCode(2),
                "unknown flag --bogus");
}

TEST(OptionsDeathTest, UnknownWorkloadExitsBeforeAnyRun)
{
    EXPECT_EXIT(parseFlags({"--workload=NOPE"}),
                ::testing::ExitedWithCode(2), "--workload wants one of");
}

TEST(OptionsDeathTest, WorkloadOutsideANarrowedSetExitsBeforeAnyRun)
{
    // perf_gate narrows --workload to its gate set: a valid Table III
    // workload outside it is refused, alone or beside a gate member,
    // instead of silently selecting the whole set or being dropped.
    EXPECT_EXIT(parseFlags({"--workload=FIR"}, gateSet),
                ::testing::ExitedWithCode(2),
                "--workload wants one of MT\\|BFS\\|SC, got 'FIR'");
    EXPECT_EXIT(parseFlags({"--workload=MT", "--workload=FIR"}, gateSet),
                ::testing::ExitedWithCode(2),
                "--workload wants one of MT\\|BFS\\|SC, got 'FIR'");
}

TEST(Options, NarrowedWorkloadSetIsTheDefaultSelection)
{
    EXPECT_EQ(parseFlags({}, gateSet).workloads, gateSet);
    EXPECT_EQ(parseFlags({"--workload=SC"}, gateSet).workloads,
              (std::vector<std::string>{"SC"}));
}

TEST(OptionsDeathTest, UnknownLogLevelExitsWithUsageError)
{
    EXPECT_EXIT(parseFlags({"--log=bogus"}), ::testing::ExitedWithCode(2),
                "--log wants one of error\\|warn\\|info\\|trace");
}

TEST(OptionsDeathTest, UnwritableOutputExitsWithUsageError)
{
    for (const char *flag : {"--report", "--trace", "--samples",
                             "--host-prof"}) {
        EXPECT_EXIT(
            parseFlags({std::string(flag) + "=/nonexistent/dir/out"}),
            ::testing::ExitedWithCode(2),
            std::string(flag) + ": cannot open '/nonexistent/dir/out'")
            << flag;
    }
}

TEST(OptionsDeathTest, HelpExitsZero)
{
    EXPECT_EXIT(parseFlags({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(ObsState, FailedWriteAtExitPrintsAnErrorNotTheSuccessLine)
{
    if (!std::ofstream("/dev/full"))
        GTEST_SKIP() << "no /dev/full to fail writes";
    Options opt;
    opt.reportFile = "/dev/full";
    testing::internal::CaptureStderr();
    { ObsState state(opt); } // writes the (empty) report at destruction
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("error: writing /dev/full failed"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("report: /dev/full"), std::string::npos) << err;
}

} // namespace
