// Golden regression values.
//
// The simulator is bit-reproducible, so a handful of operating points can
// be pinned to their exact measured values. A failure here means the
// *model* changed (parameters, protocol, scheduling) — which is fine when
// intentional, but must never happen by accident: recalibrate against
// docs/machine_models.md and EXPERIMENTS.md, then update these numbers.
#include <gtest/gtest.h>

#include "backend/machine.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/units.hpp"
#include "net/fault.hpp"

namespace comb::bench {
namespace {

using namespace comb::units;

// Tight relative tolerance: these are equality checks with room for
// harmless floating-point re-association only.
constexpr double kRel = 1e-6;

TEST(Goldens, PollingGm100KbAt10kIters) {
  auto p = presets::pollingBase(100_KB);
  p.pollInterval = 10'000;
  const auto pt = runPoint(backend::gmMachine(), p);
  EXPECT_NEAR(pt.bandwidthBps, 86856212.25, 86856212.25 * kRel);
  EXPECT_NEAR(pt.availability, 0.9703467463, 0.9703467463 * kRel);
  EXPECT_EQ(pt.messagesReceived, 25u);
}

TEST(Goldens, PollingPortals100KbAt10kIters) {
  auto p = presets::pollingBase(100_KB);
  p.pollInterval = 10'000;
  const auto pt = runPoint(backend::portalsMachine(), p);
  EXPECT_NEAR(pt.bandwidthBps, 59330732.26, 59330732.26 * kRel);
  EXPECT_NEAR(pt.availability, 0.03812063482, 0.03812063482 * kRel);
  EXPECT_EQ(pt.messagesReceived, 435u);
}

TEST(Goldens, PwwGm100KbAt1MIters) {
  auto p = presets::pwwBase(100_KB);
  p.workInterval = 1'000'000;
  const auto pt = runPoint(backend::gmMachine(), p);
  EXPECT_NEAR(pt.avgPost, 1e-05, 1e-05 * kRel);
  EXPECT_NEAR(pt.avgWork, 0.004, 0.004 * kRel);
  EXPECT_NEAR(pt.avgWait, 0.001218011111, 0.001218011111 * kRel);
}

TEST(Goldens, PwwPortals100KbAt1MIters) {
  auto p = presets::pwwBase(100_KB);
  p.workInterval = 1'000'000;
  const auto pt = runPoint(backend::portalsMachine(), p);
  EXPECT_NEAR(pt.avgPost, 0.0006096, 0.0006096 * kRel);
  EXPECT_NEAR(pt.avgWork, 0.005403571429, 0.005403571429 * kRel);
  EXPECT_NEAR(pt.avgWait, 1.2e-06, 1.2e-06 * kRel);
}

TEST(Goldens, Latency10Kb) {
  LatencyParams lp;
  lp.msgBytes = 10_KB;
  const auto gm = runPoint(backend::gmMachine(), lp);
  const auto ptl = runPoint(backend::portalsMachine(), lp);
  EXPECT_NEAR(gm.halfRoundTripAvg, 0.0002355147619,
              0.0002355147619 * kRel);
  EXPECT_NEAR(ptl.halfRoundTripAvg, 0.0003299380952,
              0.0003299380952 * kRel);
}

// Lossy goldens: the only in-tree pins on the retransmission timeline.
// One 100 KB polling point per stack under a bursty 2% drop stream; the
// fault counters are exact, the reduced figures exact up to kRel.
struct LossyGolden {
  double bandwidthBps;
  double availability;
  std::uint64_t messagesReceived;
  net::FaultCounters fault;
};

void expectLossyGolden(const backend::MachineConfig& machine,
                       const LossyGolden& want) {
  auto p = presets::pollingBase(100_KB);
  p.pollInterval = 10'000;
  RunOptions opts;
  opts.fault = net::parseFaultSpec("drop=0.02,burst=2,seed=3");
  const auto pt = runPoint(machine, p, opts);
  EXPECT_NEAR(pt.bandwidthBps, want.bandwidthBps, want.bandwidthBps * kRel);
  EXPECT_NEAR(pt.availability, want.availability, want.availability * kRel);
  EXPECT_EQ(pt.messagesReceived, want.messagesReceived);
  EXPECT_EQ(pt.fault.dropsInjected, want.fault.dropsInjected);
  EXPECT_EQ(pt.fault.corruptsInjected, want.fault.corruptsInjected);
  EXPECT_EQ(pt.fault.retransmits, want.fault.retransmits);
  EXPECT_EQ(pt.fault.timeoutWakeups, want.fault.timeoutWakeups);
  EXPECT_EQ(pt.fault.duplicatesFiltered, want.fault.duplicatesFiltered);
}

TEST(Goldens, LossyPollingGm100Kb) {
  expectLossyGolden(backend::gmMachine(),
                    {55808186.61, 0.9741907575, 16, {170, 0, 170, 65, 83}});
}

TEST(Goldens, LossyPollingPortals100Kb) {
  expectLossyGolden(
      backend::portalsMachine(),
      {57439132.55, 0.06661323155, 241, {2184, 0, 2210, 685, 1038}});
}

TEST(Goldens, LossyPollingProgressThread100Kb) {
  expectLossyGolden(backend::progressThreadMachine(),
                    {55972150.58, 0.9770529214, 16, {170, 0, 170, 62, 82}});
}

TEST(Goldens, LossyPollingRdma100Kb) {
  expectLossyGolden(backend::rdmaMachine(),
                    {63513723.06, 0.9855102428, 18, {182, 0, 182, 72, 99}});
}

}  // namespace
}  // namespace comb::bench
