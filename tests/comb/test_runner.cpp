#include "comb/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "backend/machine.hpp"
#include "comb/congestion.hpp"
#include "comb/presets.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "net/fault.hpp"

namespace comb::bench {
namespace {

RunOptions withJobs(int jobs) {
  RunOptions opts;
  opts.jobs = jobs;
  return opts;
}

TEST(LogSweep, CoversDecades) {
  const auto xs = logSweep(10, 100'000, 1);
  EXPECT_EQ(xs, (std::vector<std::uint64_t>{10, 100, 1000, 10000, 100000}));
}

TEST(LogSweep, DensityAddsIntermediatePoints) {
  const auto xs = logSweep(10, 1000, 2);
  // 10, ~31.6, 100, ~316, 1000.
  ASSERT_EQ(xs.size(), 5u);
  EXPECT_EQ(xs.front(), 10u);
  EXPECT_EQ(xs.back(), 1000u);
  EXPECT_NEAR(static_cast<double>(xs[1]), 31.6, 1.0);
}

TEST(LogSweep, EndpointAlwaysIncluded) {
  const auto xs = logSweep(10, 70'000, 1);
  EXPECT_EQ(xs.back(), 70'000u);
}

TEST(LogSweep, SinglePointRange) {
  const auto xs = logSweep(50, 50, 3);
  ASSERT_EQ(xs.size(), 1u);
  EXPECT_EQ(xs[0], 50u);
}

TEST(LogSweep, RejectsBadBounds) {
  EXPECT_THROW(logSweep(0, 10, 1), ConfigError);
  EXPECT_THROW(logSweep(100, 10, 1), ConfigError);
  EXPECT_THROW(logSweep(1, 10, 0), ConfigError);
}

TEST(LogSweep, StrictlyIncreasingAtHighDensityOverManyDecades) {
  // Regression: the old implementation accumulated the exponent with
  // repeated `e += step`; after dozens of additions the drift could skip
  // or duplicate a grid point. Recomputing from the integer index keeps
  // the grid exact: p*(decades) interior steps + 1, strictly increasing.
  for (const int ppd : {1, 2, 3, 7, 10}) {
    const auto xs = logSweep(10, 100'000'000, ppd);
    EXPECT_EQ(xs.size(), static_cast<std::size_t>(7 * ppd + 1))
        << "points-per-decade=" << ppd;
    EXPECT_EQ(xs.front(), 10u);
    EXPECT_EQ(xs.back(), 100'000'000u);
    for (std::size_t i = 1; i < xs.size(); ++i)
      ASSERT_LT(xs[i - 1], xs[i]) << "ppd=" << ppd << " i=" << i;
  }
}

TEST(LogSweep, DecadeBoundariesStayExactAtHighDensity) {
  // With drift, a boundary like 10^6 could come back as 999999 or be
  // skipped entirely. Every decade boundary must appear exactly.
  const auto xs = logSweep(10, 10'000'000, 10);
  for (std::uint64_t decade = 10; decade <= 10'000'000; decade *= 10)
    EXPECT_NE(std::find(xs.begin(), xs.end(), decade), xs.end())
        << "missing decade boundary " << decade;
}

TEST(LogSweep, LargeBoundsDoNotOverflow) {
  // Regression: llround returns long long, so values above 2^63-1
  // (~9.2e18) invoked UB even though they fit in uint64_t. 10^19 is such
  // a value.
  const auto xs = logSweep(1'000'000'000'000'000'000ull,  // 10^18
                           10'000'000'000'000'000'000ull,  // 10^19
                           1);
  EXPECT_EQ(xs, (std::vector<std::uint64_t>{1'000'000'000'000'000'000ull,
                                            10'000'000'000'000'000'000ull}));
}

TEST(LogSweep, Uint64MaxUpperBoundIsSafe) {
  const auto xs = logSweep(1, std::numeric_limits<std::uint64_t>::max(), 1);
  EXPECT_EQ(xs.front(), 1u);
  EXPECT_EQ(xs.back(), std::numeric_limits<std::uint64_t>::max());
  for (std::size_t i = 1; i < xs.size(); ++i)
    ASSERT_LT(xs[i - 1], xs[i]);
}

TEST(Presets, PaperSizesAndSweeps) {
  const auto sizes = presets::paperMessageSizes();
  ASSERT_EQ(sizes.size(), 4u);
  EXPECT_EQ(sizes[0], 10u * 1024u);
  EXPECT_EQ(sizes[3], 300u * 1024u);
  const auto polls = presets::pollSweep(1);
  EXPECT_EQ(polls.front(), 10u);
  EXPECT_EQ(polls.back(), 100'000'000u);
  const auto works = presets::workSweep(1);
  EXPECT_EQ(works.front(), 1'000u);
  EXPECT_EQ(works.back(), 10'000'000u);
}

TEST(Runner, SweepOverridesInterval) {
  auto base = presets::pollingBase(10 * 1024);
  base.targetDuration = 3e-3;
  base.maxPolls = 2'000;
  const std::vector<std::uint64_t> intervals{1'000, 100'000};
  const auto pts =
      runSweep(backend::gmMachine(), sweepOver(base, intervals));
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].pollInterval, 1'000u);
  EXPECT_EQ(pts[1].pollInterval, 100'000u);
  EXPECT_EQ(pts[0].msgBytes, 10u * 1024u);
}

TEST(Runner, PwwSweepOverridesInterval) {
  auto base = presets::pwwBase(10 * 1024);
  base.reps = 4;
  const std::vector<std::uint64_t> intervals{5'000, 500'000};
  const auto pts =
      runSweep(backend::portalsMachine(), sweepOver(base, intervals));
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].workInterval, 5'000u);
  EXPECT_EQ(pts[1].workInterval, 500'000u);
  EXPECT_EQ(pts[1].reps, 3);  // reps minus warm-up
}

// Whole points compared exactly (fault counters, tails and shard
// imbalance included): the parallel executor must be *bit-identical* to
// the serial path, not merely close.
template <typename Point>
void expectSamePoints(const std::vector<Point>& a,
                      const std::vector<Point>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_TRUE(a[i] == b[i]) << "point " << i;
}

TEST(ParallelSweep, PollingBitIdenticalToSerialOnBothMachines) {
  auto base = presets::pollingBase(10 * 1024);
  base.targetDuration = 3e-3;
  base.maxPolls = 2'000;
  const auto intervals = logSweep(10, 1'000'000, 1);
  for (const auto& machine :
       {backend::gmMachine(), backend::portalsMachine()}) {
    const auto spec = sweepOver(base, intervals);
    SCOPED_TRACE(machine.name);
    expectSamePoints(runSweep(machine, spec, withJobs(1)),
                     runSweep(machine, spec, withJobs(4)));
  }
}

TEST(ParallelSweep, PwwBitIdenticalToSerial) {
  auto base = presets::pwwBase(10 * 1024);
  base.reps = 4;
  const std::vector<std::uint64_t> intervals{5'000, 50'000, 500'000,
                                             5'000'000};
  const auto spec = sweepOver(base, intervals);
  expectSamePoints(runSweep(backend::gmMachine(), spec, withJobs(1)),
                   runSweep(backend::gmMachine(), spec, withJobs(3)));
}

TEST(ParallelSweep, LatencyBitIdenticalToSerial) {
  const std::vector<Bytes> sizes{64, 1024, 10 * 1024, 100 * 1024};
  SweepSpec<LatencyParams> spec;
  spec.base.reps = 5;
  spec.values = sizes;
  expectSamePoints(runSweep(backend::portalsMachine(), spec, withJobs(1)),
                   runSweep(backend::portalsMachine(), spec, withJobs(4)));
}

TEST(ParallelSweep, RunSweepParallelPropagatesFirstPointException) {
  const std::vector<int> params{0, 1, 2, 3, 4, 5};
  for (const int jobs : {1, 3}) {
    try {
      runSweepParallel(
          backend::gmMachine(), params,
          [](const backend::MachineConfig&, int p) {
            if (p >= 2) throw std::runtime_error("point " + std::to_string(p));
            return p;
          },
          jobs);
      FAIL() << "expected exception, jobs=" << jobs;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "point 2") << "jobs=" << jobs;
    }
  }
}

TEST(ParallelSweep, JobsGreaterThanPointsWorks) {
  auto base = presets::pollingBase(10 * 1024);
  base.targetDuration = 3e-3;
  base.maxPolls = 2'000;
  const std::vector<std::uint64_t> intervals{1'000, 100'000};
  const auto pts = runSweep(backend::gmMachine(),
                            sweepOver(base, intervals),
                            withJobs(64));
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].pollInterval, 1'000u);
  EXPECT_EQ(pts[1].pollInterval, 100'000u);
}

// Thread-budget mediation between sweep-level --jobs and core-level
// --sim-jobs: never oversubscribe past hardware concurrency.
TEST(Runner, SimWorkerBudgetCapsOversubscription) {
  RunOptions serial;
  serial.jobs = 64;
  EXPECT_EQ(simWorkerBudget(serial), 0);  // serial core never spawns workers

  RunOptions modest;
  modest.jobs = 1;
  modest.simJobs = 1;
  EXPECT_EQ(simWorkerBudget(modest), 0);

  // jobs * simJobs guaranteed past any real hardware concurrency: the cap
  // must bound per-cluster workers so the product fits the machine.
  RunOptions over;
  over.jobs = 1 << 16;
  over.simJobs = 4;
  const int cap = simWorkerBudget(over);
  EXPECT_GE(cap, 1);
  EXPECT_LE(static_cast<long long>(cap) * over.jobs,
            std::max(static_cast<long long>(hardwareJobs()),
                     static_cast<long long>(over.jobs)));
}

// coreOptions forwards only the execution shape (jobs + simJobs): fault
// and rep settings are the sweep layer's business.
TEST(Runner, CoreOptionsForwardsExecutionShapeOnly) {
  RunOptions opts;
  opts.jobs = 3;
  opts.simJobs = 2;
  opts.rep.reps = 9;
  net::FaultSpec fault;
  fault.dropProb = 0.5;
  opts.fault = fault;
  const RunOptions core = coreOptions(opts);
  EXPECT_EQ(core.jobs, 3);
  EXPECT_EQ(core.simJobs, 2);
  EXPECT_FALSE(core.fault.has_value());
  EXPECT_EQ(core.rep.reps, RunOptions{}.rep.reps);
}

// --- every row of the method table through one typed test ----------------

/// A small sweep per row: its machine, base point and two axis values.
template <typename Param>
struct RowCase;

template <>
struct RowCase<PollingParams> {
  static constexpr const char* name = "polling";
  static backend::MachineConfig machine() { return backend::gmMachine(); }
  static PollingParams base() {
    auto p = presets::pollingBase(10 * 1024);
    p.targetDuration = 3e-3;
    p.maxPolls = 2'000;
    return p;
  }
  static std::vector<std::uint64_t> values() { return {1'000, 100'000}; }
};

template <>
struct RowCase<PwwParams> {
  static constexpr const char* name = "pww";
  static backend::MachineConfig machine() { return backend::portalsMachine(); }
  static PwwParams base() {
    auto p = presets::pwwBase(10 * 1024);
    p.reps = 4;
    return p;
  }
  static std::vector<std::uint64_t> values() { return {5'000, 500'000}; }
};

template <>
struct RowCase<LatencyParams> {
  static constexpr const char* name = "latency";
  static backend::MachineConfig machine() { return backend::portalsMachine(); }
  static LatencyParams base() {
    LatencyParams p;
    p.reps = 5;
    return p;
  }
  static std::vector<std::uint64_t> values() { return {1024, 100 * 1024}; }
};

template <>
struct RowCase<CongestionParams> {
  static constexpr const char* name = "congestion";
  static backend::MachineConfig machine() {
    auto m = backend::gmMachine();
    m.fabric.sw.ports = 0;  // one unlimited crossbar
    return m;
  }
  static CongestionParams base() {
    CongestionParams p;
    p.pattern = CongestionPattern::Hotspot;
    p.msgBytes = 16 * 1024;
    p.messagesPerSender = 2;
    p.window = 4;
    return p;
  }
  static std::vector<std::uint64_t> values() { return {4, 6}; }
};

struct RowName {
  template <typename Param>
  static std::string GetName(int) {
    return RowCase<Param>::name;
  }
};

template <typename Param>
class MethodRowTest : public ::testing::Test {
 protected:
  using Case = RowCase<Param>;
  static SweepSpec<Param> spec() {
    return sweepOver(Case::base(), Case::values());
  }
  /// A lossy fabric, so the fault streams (and retransmissions) are part
  /// of what must be reproduced.
  static RunOptions lossy(int jobs) {
    RunOptions opts = withJobs(jobs);
    opts.fault = net::parseFaultSpec("drop=0.02,seed=5");
    return opts;
  }
};

using Rows =
    ::testing::Types<PollingParams, PwwParams, LatencyParams, CongestionParams>;
TYPED_TEST_SUITE(MethodRowTest, Rows, RowName);

TYPED_TEST(MethodRowTest, SweepPointsAreSinglePoints) {
  const auto machine = TestFixture::Case::machine();
  const auto spec = TestFixture::spec();
  const auto sweep = runSweep(machine, spec, TestFixture::lossy(1));
  ASSERT_EQ(sweep.size(), spec.values.size());
  for (std::size_t i = 0; i < spec.values.size(); ++i) {
    TypeParam p = spec.base;
    p.*Method<TypeParam>::axis = spec.values[i];
    EXPECT_TRUE(sweep[i] == runPoint(machine, p, TestFixture::lossy(1)))
        << "point " << i;
  }
}

TYPED_TEST(MethodRowTest, SweepIsJobsIndependent) {
  const auto machine = TestFixture::Case::machine();
  const auto spec = TestFixture::spec();
  expectSamePoints(runSweep(machine, spec, TestFixture::lossy(1)),
                   runSweep(machine, spec, TestFixture::lossy(4)));
}

TYPED_TEST(MethodRowTest, CanonicalRepsAreTheSweep) {
  const auto machine = TestFixture::Case::machine();
  auto opts = TestFixture::lossy(2);
  opts.rep.reps = 3;
  const auto spec = TestFixture::spec();
  std::vector<PointOf<TypeParam>> canonical;
  for (const auto& run : runSweepReps(machine, spec, opts)) {
    ASSERT_EQ(run.reps.size(), 3u);
    canonical.push_back(run.canonical());
  }
  expectSamePoints(canonical, runSweep(machine, spec, TestFixture::lossy(1)));
}

TYPED_TEST(MethodRowTest, LosslessRepsAreIdentical) {
  RunOptions opts;
  opts.rep.reps = 3;
  const auto run = runPointReps(TestFixture::Case::machine(),
                                TestFixture::Case::base(), opts);
  ASSERT_EQ(run.reps.size(), 3u);
  for (const auto& rep : run.reps) EXPECT_TRUE(rep == run.canonical());
  EXPECT_EQ(run.bandwidthCi.halfWidth(), 0.0);
}

}  // namespace
}  // namespace comb::bench
