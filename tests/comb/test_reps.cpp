// Repetition-aware runners: rep 0 is byte-identical to a single run, rep
// sequences are bit-reproducible for a fixed seed and independent of
// --jobs, a lossless fabric converges at minReps with a degenerate CI,
// and fault injection is the only thing that makes reps differ.
#include <gtest/gtest.h>

#include <vector>

#include "backend/machine.hpp"
#include "comb/archive_build.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "net/fault.hpp"

namespace comb::bench {
namespace {

using namespace comb::units;

RunOptions withFault(const std::string& spec, RepPolicy rep) {
  RunOptions opts;
  opts.fault = net::parseFaultSpec(spec);
  opts.rep = rep;
  return opts;
}

void expectSamePolling(const PollingPoint& a, const PollingPoint& b) {
  EXPECT_EQ(a.pollInterval, b.pollInterval);
  EXPECT_EQ(a.msgBytes, b.msgBytes);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.bandwidthBps, b.bandwidthBps);
  EXPECT_EQ(a.dryTime, b.dryTime);
  EXPECT_EQ(a.liveTime, b.liveTime);
  EXPECT_EQ(a.messagesReceived, b.messagesReceived);
  EXPECT_EQ(a.pollsExecuted, b.pollsExecuted);
  EXPECT_EQ(a.fault.dropsInjected, b.fault.dropsInjected);
  EXPECT_EQ(a.fault.retransmits, b.fault.retransmits);
}

TEST(RepPolicy, ValidationRejectsBadValues) {
  const auto bad = [](auto&& mutate) {
    RepPolicy p;
    mutate(p);
    EXPECT_THROW(validateRepPolicy(p), ConfigError);
  };
  bad([](RepPolicy& p) { p.reps = 0; });
  bad([](RepPolicy& p) { p.maxReps = 0; });
  bad([](RepPolicy& p) { p.minReps = 0; });
  bad([](RepPolicy& p) { p.minReps = 5; p.maxReps = 4; });
  bad([](RepPolicy& p) { p.ciTarget = 0.0; });
  bad([](RepPolicy& p) { p.ciLevel = 1.0; });
  validateRepPolicy(RepPolicy{});  // defaults are valid
}

TEST(RepPolicy, RepSeedIsDeterministicAndMixes) {
  EXPECT_EQ(repSeed(42, 1), repSeed(42, 1));
  EXPECT_NE(repSeed(42, 1), repSeed(42, 2));
  EXPECT_NE(repSeed(42, 1), repSeed(43, 1));
  // Rep 0 never goes through repSeed in the runner, but the mix itself
  // must still be a proper hash, not identity.
  EXPECT_NE(repSeed(42, 0), 42u);
}

TEST(Reps, CanonicalPointIsByteIdenticalToSingleRun) {
  const auto machine = backend::gmMachine();
  const auto params = presets::pollingBase(100_KB);
  RepPolicy rep;
  rep.reps = 4;
  rep.seed = 7;
  const auto opts = withFault("drop=0.05,seed=3", rep);
  const auto run = runPointReps(machine, params, opts);
  ASSERT_EQ(run.reps.size(), 4u);
  // The canonical rep runs the machine exactly as configured — the rep
  // count must never perturb the reported point.
  expectSamePolling(run.canonical(), runPoint(machine, params, opts));
}

TEST(Reps, PwwCanonicalMatchesSingleRun) {
  const auto machine = backend::portalsMachine();
  const auto params = presets::pwwBase(100_KB);
  RepPolicy rep;
  rep.reps = 3;
  const auto opts = withFault("drop=0.04,seed=11", rep);
  const auto run = runPointReps(machine, params, opts);
  ASSERT_EQ(run.reps.size(), 3u);
  const auto single = runPoint(machine, params, opts);
  EXPECT_EQ(run.canonical().availability, single.availability);
  EXPECT_EQ(run.canonical().bandwidthBps, single.bandwidthBps);
  EXPECT_EQ(run.canonical().avgWait, single.avgWait);
}

TEST(Reps, LosslessFabricRepsAreIdenticalAndConvergeAtMinReps) {
  const auto machine = backend::gmMachine();
  const auto params = presets::pollingBase(100_KB);
  RunOptions opts;
  opts.rep.adaptive = true;
  opts.rep.minReps = 3;
  opts.rep.maxReps = 10;
  const auto run = runPointReps(machine, params, opts);
  // No fault stream is ever sampled, so reseeding is a no-op: every rep
  // is bit-identical and the CI collapses at the first check.
  ASSERT_EQ(run.reps.size(), 3u);
  EXPECT_TRUE(run.converged);
  for (const auto& p : run.reps) expectSamePolling(p, run.canonical());
  EXPECT_EQ(run.bandwidthCi.lo, run.bandwidthCi.hi);
  EXPECT_EQ(run.bandwidthCi.relHalfWidth(), 0.0);
}

TEST(Reps, FaultInjectionMakesRepsDiffer) {
  const auto machine = backend::gmMachine();
  const auto params = presets::pollingBase(100_KB);
  RepPolicy rep;
  rep.reps = 5;
  rep.seed = 9;
  const auto run =
      runPointReps(machine, params, withFault("drop=0.08,seed=3", rep));
  ASSERT_EQ(run.reps.size(), 5u);
  bool anyDiffers = false;
  for (const auto& p : run.reps)
    anyDiffers |= p.bandwidthBps != run.canonical().bandwidthBps;
  EXPECT_TRUE(anyDiffers)
      << "re-seeded fault streams should perturb at least one rep";
}

TEST(Reps, AdaptiveRunIsBitReproducible) {
  const auto machine = backend::gmMachine();
  const auto params = presets::pollingBase(100_KB);
  RepPolicy rep;
  rep.adaptive = true;
  rep.minReps = 3;
  rep.maxReps = 6;
  rep.ciTarget = 1e-9;  // unreachable: exhaust the budget, deterministically
  rep.seed = 21;
  const auto opts = withFault("drop=0.05,seed=3", rep);
  const auto a = runPointReps(machine, params, opts);
  const auto b = runPointReps(machine, params, opts);
  EXPECT_FALSE(a.converged);
  ASSERT_EQ(a.reps.size(), 6u);
  ASSERT_EQ(b.reps.size(), a.reps.size());
  for (std::size_t i = 0; i < a.reps.size(); ++i)
    expectSamePolling(a.reps[i], b.reps[i]);
  EXPECT_EQ(a.bandwidthCi.lo, b.bandwidthCi.lo);
  EXPECT_EQ(a.bandwidthCi.hi, b.bandwidthCi.hi);
}

TEST(Reps, SweepRepsAreJobsIndependent) {
  const auto machine = backend::portalsMachine();
  const auto spec = sweepOver(presets::pollingBase(100_KB),
                              {1'000, 10'000, 100'000, 1'000'000});
  RepPolicy rep;
  rep.reps = 3;
  rep.seed = 5;
  auto opts = withFault("drop=0.06,seed=4", rep);
  opts.jobs = 1;
  const auto serial = runSweepReps(machine, spec, opts);
  opts.jobs = 4;
  const auto parallel = runSweepReps(machine, spec, opts);
  ASSERT_EQ(serial.size(), spec.values.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(parallel[i].reps.size(), serial[i].reps.size());
    for (std::size_t r = 0; r < serial[i].reps.size(); ++r)
      expectSamePolling(parallel[i].reps[r], serial[i].reps[r]);
  }
}

TEST(Reps, ArchiveStampsCoreConfiguration) {
  // Sharded archives record the full core configuration: shard count,
  // affinity policy, the "matrix" window-bound source, and — once a
  // sweep has named the machine — the certified scalar lookahead floor.
  const auto machine = backend::gmMachine();
  RunOptions opts;
  opts.simJobs = 2;
  opts.simAffinity = sim::AffinityPolicy::Compact;
  opts.rep.reps = 1;
  auto params = presets::pollingBase(10_KB);
  params.targetDuration = 3e-3;
  params.maxPolls = 2'000;
  const auto run = runPointReps(machine, params, opts);

  auto archive =
      makeArchive("stamp_test", opts.rep, opts.simJobs, opts.simAffinity);
  EXPECT_EQ(archive.provenance.simJobs, 2);
  EXPECT_EQ(archive.provenance.simAffinity, "compact");
  EXPECT_EQ(archive.provenance.lookaheadSource, "matrix");
  EXPECT_EQ(archive.provenance.lookahead, 0.0);  // no sweep appended yet
  appendPollingSweep(archive, "polling/gm/10 KB", machine,
                     {params.pollInterval}, {run});
  EXPECT_EQ(archive.provenance.lookahead, machine.fabric.link.latency);

  // Serial archives keep the scalar default: no shards, no window bound.
  const auto serial = makeArchive("stamp_test", opts.rep);
  EXPECT_EQ(serial.provenance.simJobs, 1);
  EXPECT_EQ(serial.provenance.simAffinity, "none");
  EXPECT_EQ(serial.provenance.lookaheadSource, "global-min");
}

}  // namespace
}  // namespace comb::bench
