// The run-options schema (addRunOptions / runOptionsFrom in
// comb/runner.hpp) is the one declaration of the shared run settings
// behind both front ends: the figure benches' parseFigArgs and the `comb`
// CLI parser. The same shared argv must give the same RunOptions through
// either route, and every bad value must be rejected by both at parse
// time (exit 2 for the benches, ConfigError for the CLI, which main()
// turns into exit 2).
#include <gtest/gtest.h>

#include <vector>

#include "backend/machine.hpp"
#include "bench/fig_common.hpp"
#include "tools/comb_args.hpp"

namespace comb::bench {
namespace {

using Argv = std::vector<const char*>;

FigArgs figParse(Argv argv) {
  argv.insert(argv.begin(), "figtest");
  return parseFigArgs(static_cast<int>(argv.size()), argv.data(), "figtest",
                      "run-options schema test");
}

/// `comb polling <argv>`: the parser comb_cli builds for a method.
ArgParser cliParser(Argv argv) {
  argv.insert(argv.begin(), "polling");
  ArgParser parser = cli::makeParser("polling");
  parser.parse(static_cast<int>(argv.size()), argv.data());
  return parser;
}

RunOptions cliParse(Argv argv) { return runOptionsFrom(cliParser(argv)); }

void expectSame(const RunOptions& a, const RunOptions& b) {
  EXPECT_EQ(a.jobs, b.jobs);
  EXPECT_EQ(a.simJobs, b.simJobs);
  EXPECT_EQ(a.simAffinity, b.simAffinity);
  ASSERT_EQ(a.fault.has_value(), b.fault.has_value());
  if (a.fault) {
    EXPECT_EQ(a.fault->dropProb, b.fault->dropProb);
    EXPECT_EQ(a.fault->burstLen, b.fault->burstLen);
    EXPECT_EQ(a.fault->corruptProb, b.fault->corruptProb);
    EXPECT_EQ(a.fault->jitter, b.fault->jitter);
    EXPECT_EQ(a.fault->seed, b.fault->seed);
  }
  ASSERT_EQ(a.noise.has_value(), b.noise.has_value());
  if (a.noise) {
    EXPECT_EQ(a.noise->period, b.noise->period);
    EXPECT_EQ(a.noise->duration, b.noise->duration);
    EXPECT_EQ(a.noise->jitter, b.noise->jitter);
    EXPECT_EQ(a.noise->daemons, b.noise->daemons);
    EXPECT_EQ(a.noise->coalesce, b.noise->coalesce);
    EXPECT_EQ(a.noise->seed, b.noise->seed);
  }
  EXPECT_EQ(a.rep.reps, b.rep.reps);
  EXPECT_EQ(a.rep.adaptive, b.rep.adaptive);
  EXPECT_EQ(a.rep.minReps, b.rep.minReps);
  EXPECT_EQ(a.rep.maxReps, b.rep.maxReps);
  EXPECT_EQ(a.rep.ciTarget, b.rep.ciTarget);
  EXPECT_EQ(a.rep.ciLevel, b.rep.ciLevel);
  EXPECT_EQ(a.rep.seed, b.rep.seed);
}

TEST(RunOptionsSchema, BothFrontEndsParseTheSameRunOptions) {
  const std::vector<Argv> cases = {
      {},
      {"--jobs", "3", "--sim-jobs", "2", "--sim-affinity", "compact"},
      {"--fault", "drop=0.01,burst=4,corrupt=0.001,jitter_us=2,seed=7",
       "--noise", "period_us=250,duration_us=20,daemons=2,seed=5"},
      {"--reps", "4", "--seed", "11", "--archive", "out/archives"},
      {"--reps-auto", "--ci-target", "0.1", "--max-reps", "2",
       "--sim-affinity=scatter"},
  };
  for (const auto& argv : cases) {
    SCOPED_TRACE(testing::Message() << argv.size() << " arg(s)");
    const FigArgs fig = figParse(argv);
    ASSERT_TRUE(fig.parsedOk);
    expectSame(fig.opts, cliParse(argv));
    EXPECT_EQ(fig.archiveDir, cliParser(argv).str("archive"));
  }
  // One default rule for --jobs in both: all hardware threads.
  EXPECT_EQ(cliParse({}).jobs, hardwareJobs());
}

TEST(RunOptionsSchema, BothFrontEndsRejectEveryBadValue) {
  const std::vector<Argv> bad = {
      {"--jobs", "0"},           {"--jobs", "-2"},
      {"--jobs", "all"},         {"--sim-jobs", "0"},
      {"--sim-affinity", "numa"}, {"--fault", "drop=2"},
      {"--noise", "period_us"},  {"--noise", "bogus=1"},
      {"--reps", "0"},           {"--max-reps", "0"},
  };
  for (const auto& argv : bad) {
    SCOPED_TRACE(testing::Message() << argv[0] << " " << argv[1]);
    const FigArgs fig = figParse(argv);
    EXPECT_FALSE(fig.parsedOk);
    EXPECT_EQ(fig.exitCode, 2);
    EXPECT_THROW(cliParse(argv), ConfigError);
  }
}

// The CLI folds --fault / --noise into the machine it runs and archives,
// so an archive's machine_hash names the model that ran. The hash of the
// gm preset under --fault drop=0.01 is pinned: committed CLI archives must
// keep gating against fresh ones.
TEST(RunOptionsSchema, CliFaultOverrideKeepsItsMachineHash) {
  const ArgParser parser = cliParser({"--fault", "drop=0.01"});
  const auto machine = cli::machineFrom(parser, runOptionsFrom(parser));
  EXPECT_DOUBLE_EQ(machine.fabric.link.fault.dropProb, 0.01);
  EXPECT_EQ(backend::machineHash(machine), "1e7717b6c0f9e9d0");
  const ArgParser plain = cliParser({});
  const auto lossless = cli::machineFrom(plain, runOptionsFrom(plain));
  EXPECT_NE(backend::machineHash(lossless), backend::machineHash(machine));
}

}  // namespace
}  // namespace comb::bench
