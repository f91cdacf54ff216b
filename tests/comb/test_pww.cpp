// The COMB Post-Work-Wait method on the simulated backend.
#include <gtest/gtest.h>

#include "backend/machine.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/units.hpp"

namespace comb::bench {
namespace {

using namespace comb::units;
using backend::MachineConfig;
using backend::TransportKind;

MachineConfig machineFor(TransportKind k) {
  return k == TransportKind::Gm ? backend::gmMachine()
                                : backend::portalsMachine();
}

PwwParams quickParams(Bytes msgBytes, std::uint64_t workInterval) {
  auto p = presets::pwwBase(msgBytes);
  p.workInterval = workInterval;
  p.reps = 9;  // 1 warm-up + 8 measured
  return p;
}

class PwwTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  MachineConfig machine() const { return machineFor(GetParam()); }
};

TEST_P(PwwTest, PhasesArePositiveAndSumToCycle) {
  const auto pt = runPoint(machine(), quickParams(100_KB, 100'000));
  EXPECT_GT(pt.avgPost, 0.0);
  EXPECT_GT(pt.avgWork, 0.0);
  EXPECT_GE(pt.avgWait, 0.0);
  EXPECT_GT(pt.dryWork, 0.0);
  const Time cycle = pt.avgPost + pt.avgWork + pt.avgWait;
  EXPECT_NEAR(pt.availability, pt.dryWork / cycle, 1e-12);
  EXPECT_NEAR(pt.bandwidthBps, static_cast<double>(pt.msgBytes) / cycle,
              1.0);
}

TEST_P(PwwTest, DryWorkMatchesAnalytic) {
  const auto pt = runPoint(machine(), quickParams(100_KB, 250'000));
  // 1% tolerance: a tail of kernel work from the preceding barrier can
  // still interrupt the first dry iterations on Portals.
  EXPECT_NEAR(pt.dryWork, 250'000 * 4e-9, 250'000 * 4e-9 * 0.01);
}

TEST_P(PwwTest, WorkPhaseAtLeastDryWork) {
  for (const std::uint64_t w : {10'000ull, 1'000'000ull}) {
    const auto pt = runPoint(machine(), quickParams(100_KB, w));
    EXPECT_GE(pt.avgWork, pt.dryWork * (1.0 - 1e-9)) << "work " << w;
  }
}

TEST_P(PwwTest, AvailabilityRisesWithWorkInterval) {
  const auto lo = runPoint(machine(), quickParams(100_KB, 5'000));
  const auto hi = runPoint(machine(), quickParams(100_KB, 10'000'000));
  EXPECT_LT(lo.availability, 0.35);
  EXPECT_GT(hi.availability, 0.9);
}

TEST_P(PwwTest, NoInitialAvailabilityPlateau) {
  // Paper: PWW lacks the polling method's low plateau; availability keeps
  // falling as the work interval shrinks because the wait dominates.
  const auto a = runPoint(machine(), quickParams(100_KB, 2'000));
  const auto b = runPoint(machine(), quickParams(100_KB, 50'000));
  const auto c = runPoint(machine(), quickParams(100_KB, 500'000));
  EXPECT_LT(a.availability, b.availability);
  EXPECT_LT(b.availability, c.availability);
}

TEST_P(PwwTest, Deterministic) {
  const auto params = quickParams(50_KB, 123'456);
  const auto a = runPoint(machine(), params);
  const auto b = runPoint(machine(), params);
  EXPECT_DOUBLE_EQ(a.availability, b.availability);
  EXPECT_DOUBLE_EQ(a.avgPost, b.avgPost);
  EXPECT_DOUBLE_EQ(a.avgWait, b.avgWait);
}

TEST_P(PwwTest, BatchScalesBandwidth) {
  auto one = quickParams(50_KB, 20'000);
  auto four = one;
  four.batch = 4;
  const auto ptOne = runPoint(machine(), one);
  const auto ptFour = runPoint(machine(), four);
  // Four messages per cycle pipeline on the wire, so throughput must not
  // degrade and is bounded well under 4x. How much it *gains* depends on
  // the bottleneck: GM (wire-bound, per-message latency amortized) gains
  // substantially; Portals (host-CPU-bound, costs scale per message)
  // gains little.
  EXPECT_GT(ptFour.bandwidthBps, 1.02 * ptOne.bandwidthBps);
  EXPECT_LT(ptFour.bandwidthBps, 4.0 * ptOne.bandwidthBps);
  if (GetParam() == TransportKind::Gm) {
    EXPECT_GT(ptFour.bandwidthBps, 1.15 * ptOne.bandwidthBps);
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, PwwTest,
                         ::testing::Values(TransportKind::Gm,
                                           TransportKind::Portals),
                         [](const auto& suiteInfo) {
                           return std::string(
                               backend::transportKindName(suiteInfo.param));
                         });

// --- the paper's offload findings -------------------------------------------

TEST(PwwOffload, PortalsWaitVanishesGmWaitPersists) {
  const auto gm =
      runPoint(backend::gmMachine(), quickParams(100_KB, 5'000'000));
  const auto portals =
      runPoint(backend::portalsMachine(), quickParams(100_KB, 5'000'000));
  // 5M iters = 20 ms of work: far beyond the ~1.2 ms exchange.
  EXPECT_LT(portals.avgWait, 50e-6);   // offload: messaging done during work
  EXPECT_GT(gm.avgWait, 800e-6);       // no offload: full exchange in wait
}

TEST(PwwOffload, PortalsWorkInflatedGmWorkExact) {
  const auto gm =
      runPoint(backend::gmMachine(), quickParams(100_KB, 500'000));
  const auto portals =
      runPoint(backend::portalsMachine(), quickParams(100_KB, 500'000));
  EXPECT_NEAR(gm.avgWork, gm.dryWork, gm.dryWork * 1e-6);
  EXPECT_GT(portals.avgWork, 1.2 * portals.dryWork);
}

TEST(PwwOffload, GmPostsCheapPortalsPostsExpensive) {
  const auto gm =
      runPoint(backend::gmMachine(), quickParams(100_KB, 100'000));
  const auto portals =
      runPoint(backend::portalsMachine(), quickParams(100_KB, 100'000));
  EXPECT_LT(gm.avgPostPerOp, 20e-6);
  EXPECT_GT(portals.avgPostPerOp, 100e-6);
}

TEST(PwwTestCall, SingleTestDrainsGmWait) {
  auto plain = quickParams(100_KB, 2'000'000);
  auto withTest = plain;
  withTest.testCallAtFraction = 0.1;
  const auto a = runPoint(backend::gmMachine(), plain);
  const auto b = runPoint(backend::gmMachine(), withTest);
  EXPECT_GT(a.avgWait, 800e-6);
  EXPECT_LT(b.avgWait, 100e-6);
  EXPECT_GT(b.bandwidthBps, 1.1 * a.bandwidthBps);
}

TEST(PwwTestCall, TestCallBarelyChangesPortals) {
  // Portals progresses anyway; the inserted call is just one library call.
  auto plain = quickParams(100_KB, 2'000'000);
  auto withTest = plain;
  withTest.testCallAtFraction = 0.1;
  const auto a = runPoint(backend::portalsMachine(), plain);
  const auto b = runPoint(backend::portalsMachine(), withTest);
  EXPECT_NEAR(b.bandwidthBps, a.bandwidthBps, 0.05 * a.bandwidthBps);
}

}  // namespace
}  // namespace comb::bench
