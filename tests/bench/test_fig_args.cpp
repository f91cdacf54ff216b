// parseFigArgs is shared by the paper bench and every ablation and
// extension bench; these tests pin down its parse-time validation: bad
// values must be rejected up front with exitCode 2 instead of exploding
// later inside COMB_REQUIRE mid-sweep.
#include "bench/fig_common.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace comb::bench {
namespace {

FigArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "figtest");
  return parseFigArgs(static_cast<int>(argv.size()), argv.data(), "figtest",
                      "parseFigArgs unit test");
}

TEST(FigArgs, DefaultsAreValid) {
  const auto args = parse({});
  EXPECT_TRUE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 0);
  EXPECT_EQ(args.pointsPerDecade, 2);
  EXPECT_GE(args.opts.jobs, 1);  // defaults to hardware concurrency
  EXPECT_EQ(args.opts.jobs, hardwareJobs());
  EXPECT_FALSE(args.csv);
  EXPECT_EQ(args.outDir, "bench_out");
}

TEST(FigArgs, ParsesExplicitValues) {
  const auto args =
      parse({"--points-per-decade", "5", "--jobs", "3", "--csv", "--out",
             "results"});
  EXPECT_TRUE(args.parsedOk);
  EXPECT_EQ(args.pointsPerDecade, 5);
  EXPECT_EQ(args.opts.jobs, 3);
  EXPECT_TRUE(args.csv);
  EXPECT_EQ(args.outDir, "results");
}

TEST(FigArgs, RejectsZeroPointsPerDecade) {
  const auto args = parse({"--points-per-decade", "0"});
  EXPECT_FALSE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 2);
}

TEST(FigArgs, RejectsNegativePointsPerDecade) {
  const auto args = parse({"--points-per-decade=-3"});
  EXPECT_FALSE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 2);
}

TEST(FigArgs, RejectsNonNumericPointsPerDecade) {
  const auto args = parse({"--points-per-decade", "many"});
  EXPECT_FALSE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 2);
}

TEST(FigArgs, RejectsZeroOrNegativeJobs) {
  for (const char* bad : {"0", "-2"}) {
    const auto args = parse({"--jobs", bad});
    EXPECT_FALSE(args.parsedOk) << "--jobs " << bad;
    EXPECT_EQ(args.exitCode, 2) << "--jobs " << bad;
  }
}

TEST(FigArgs, RejectsNonNumericJobs) {
  const auto args = parse({"--jobs", "all"});
  EXPECT_FALSE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 2);
}

TEST(FigArgs, ParsesSimAffinityPolicies) {
  EXPECT_EQ(parse({}).opts.simAffinity, sim::AffinityPolicy::None);
  EXPECT_EQ(parse({"--sim-affinity", "compact"}).opts.simAffinity,
            sim::AffinityPolicy::Compact);
  EXPECT_EQ(parse({"--sim-affinity", "scatter"}).opts.simAffinity,
            sim::AffinityPolicy::Scatter);
  // Rides into the sweep-execution options alongside --sim-jobs.
  const auto opts =
      parse({"--sim-jobs", "4", "--sim-affinity", "scatter"}).opts;
  EXPECT_EQ(opts.simJobs, 4);
  EXPECT_EQ(opts.simAffinity, sim::AffinityPolicy::Scatter);
}

TEST(FigArgs, RejectsUnknownSimAffinity) {
  const auto args = parse({"--sim-affinity", "numa"});
  EXPECT_FALSE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 2);
}

TEST(FigArgs, ParsesFaultSpec) {
  const auto args = parse({"--fault", "drop=0.01,burst=4,seed=7"});
  EXPECT_TRUE(args.parsedOk);
  ASSERT_TRUE(args.opts.fault.has_value());
  EXPECT_DOUBLE_EQ(args.opts.fault->dropProb, 0.01);
  EXPECT_EQ(args.opts.fault->burstLen, 4);
  EXPECT_EQ(args.opts.fault->seed, 7u);
  // The fault spec rides into the sweep via RunOptions.
  const auto opts = args.opts;
  ASSERT_TRUE(opts.fault.has_value());
  EXPECT_DOUBLE_EQ(opts.fault->dropProb, 0.01);
}

TEST(FigArgs, NoFaultFlagMeansNoOverride) {
  const auto args = parse({});
  EXPECT_FALSE(args.opts.fault.has_value());
}

TEST(FigArgs, RejectsMalformedFaultSpec) {
  for (const char* bad :
       {"drop=2", "drop=-1", "burst=0", "oops=1", "drop", "drop=x"}) {
    const auto args = parse({"--fault", bad});
    EXPECT_FALSE(args.parsedOk) << "--fault " << bad;
    EXPECT_EQ(args.exitCode, 2) << "--fault " << bad;
  }
}

TEST(FigArgs, DefaultIsNoTrace) {
  const auto args = parse({});
  EXPECT_TRUE(args.traceFile.empty());
}

TEST(FigArgs, ParsesTraceFileAndProbesWritability) {
  const char* path = "figargs_trace_probe.json";
  const auto args = parse({"--trace", path});
  EXPECT_TRUE(args.parsedOk);
  EXPECT_EQ(args.traceFile, path);
  // The parse-time probe opens the file for writing, so it now exists.
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path);
}

TEST(FigArgs, RejectsUnwritableTracePathAtParseTime) {
  const auto args =
      parse({"--trace", "/nonexistent-dir-xyzzy/trace.json"});
  EXPECT_FALSE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 2);
}

TEST(FigArgs, RejectsUnknownOption) {
  const auto args = parse({"--frobnicate"});
  EXPECT_FALSE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 2);
}

TEST(FigArgs, HelpExitsZeroWithoutRunning) {
  const auto args = parse({"--help"});
  EXPECT_FALSE(args.parsedOk);
  EXPECT_EQ(args.exitCode, 0);
}

}  // namespace
}  // namespace comb::bench
