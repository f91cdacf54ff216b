// The COMB polling method on the simulated backend: invariants and the
// paper's qualitative properties, over both machines (TEST_P).
#include <gtest/gtest.h>

#include <type_traits>

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

PollingParams quickParams(Bytes msgBytes, std::uint64_t interval) {
  auto p = presets::pollingBase(msgBytes);
  p.pollInterval = interval;
  p.targetDuration = 15e-3;
  p.maxPolls = 15'000;
  return p;
}

class PollingTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  MachineConfig machine() const { return machineFor(GetParam()); }
};

TEST_P(PollingTest, AvailabilityWithinUnitInterval) {
  for (const std::uint64_t interval : {100ull, 100'000ull, 10'000'000ull}) {
    const auto pt = runPoint(machine(), quickParams(100_KB, interval));
    EXPECT_GT(pt.availability, 0.0) << "interval " << interval;
    EXPECT_LE(pt.availability, 1.0 + 1e-9) << "interval " << interval;
  }
}

TEST_P(PollingTest, BandwidthPositiveAndBelowWire) {
  const auto pt = runPoint(machine(), quickParams(100_KB, 10'000));
  EXPECT_GT(pt.bandwidthBps, 0.0);
  // One-direction goodput can never exceed the configured link rate.
  EXPECT_LT(pt.bandwidthBps, machine().fabric.link.rate);
}

TEST_P(PollingTest, DryRunMatchesWorkAnalytically) {
  const auto params = quickParams(100_KB, 50'000);
  const auto pt = runPoint(machine(), params);
  // Dry run executes polls*interval iterations of pure work. A small
  // tail of kernel work from the preceding barrier may still interrupt
  // the first loop iterations on Portals, hence the 1% tolerance.
  const double expect = static_cast<double>(pt.pollsExecuted) *
                        static_cast<double>(params.pollInterval) * 4e-9;
  EXPECT_NEAR(pt.dryTime, expect, expect * 0.01);
}

TEST_P(PollingTest, LiveRunNeverFasterThanDry) {
  for (const std::uint64_t interval : {1'000ull, 1'000'000ull}) {
    const auto pt = runPoint(machine(), quickParams(100_KB, interval));
    EXPECT_GE(pt.liveTime, pt.dryTime * (1.0 - 1e-9));
  }
}

TEST_P(PollingTest, DeterministicAcrossRuns) {
  const auto params = quickParams(50_KB, 20'000);
  const auto a = runPoint(machine(), params);
  const auto b = runPoint(machine(), params);
  EXPECT_DOUBLE_EQ(a.availability, b.availability);
  EXPECT_DOUBLE_EQ(a.bandwidthBps, b.bandwidthBps);
  EXPECT_EQ(a.messagesReceived, b.messagesReceived);
  EXPECT_DOUBLE_EQ(a.liveTime, b.liveTime);
}

TEST_P(PollingTest, AvailabilityRisesWithPollInterval) {
  const auto lo = runPoint(machine(), quickParams(100_KB, 100));
  const auto hi =
      runPoint(machine(), quickParams(100_KB, 100'000'000));
  EXPECT_LT(lo.availability, 0.9);
  EXPECT_GT(hi.availability, 0.9);
  EXPECT_GT(hi.availability, lo.availability);
}

TEST_P(PollingTest, BandwidthCollapsesAtHugeIntervals) {
  const auto plateau = runPoint(machine(), quickParams(100_KB, 5'000));
  const auto sparse =
      runPoint(machine(), quickParams(100_KB, 100'000'000));
  EXPECT_LT(sparse.bandwidthBps, 0.2 * plateau.bandwidthBps);
}

TEST_P(PollingTest, MessagesFlowBothWays) {
  const auto pt = runPoint(machine(), quickParams(10_KB, 1'000));
  EXPECT_GT(pt.messagesReceived, 10u);
}

TEST_P(PollingTest, QueueDepthOneIsPingPong) {
  auto deep = quickParams(100_KB, 5'000);
  auto shallow = deep;
  shallow.queueDepth = 1;
  const auto ptDeep = runPoint(machine(), deep);
  const auto ptShallow = runPoint(machine(), shallow);
  EXPECT_LT(ptShallow.bandwidthBps, ptDeep.bandwidthBps);
}

INSTANTIATE_TEST_SUITE_P(Machines, PollingTest,
                         ::testing::Values(TransportKind::Gm,
                                           TransportKind::Portals),
                         [](const auto& suiteInfo) {
                           return std::string(
                               backend::transportKindName(suiteInfo.param));
                         });

// --- cross-machine properties (the paper's headline) -----------------------

TEST(PollingCompare, GmOutperformsPortalsAtPlateau) {
  const auto gm =
      runPoint(backend::gmMachine(), quickParams(100_KB, 10'000));
  const auto portals =
      runPoint(backend::portalsMachine(), quickParams(100_KB, 10'000));
  EXPECT_GT(gm.bandwidthBps, 1.3 * portals.bandwidthBps);
  EXPECT_LT(gm.bandwidthBps, 2.0 * portals.bandwidthBps);
}

TEST(PollingCompare, PortalsBurnsCpuWhileGmDoesNot) {
  // At a mid poll interval with full message flow, GM's availability is
  // high (NIC offload) while Portals' is low (interrupts + copies).
  const auto gm =
      runPoint(backend::gmMachine(), quickParams(100_KB, 50'000));
  const auto portals =
      runPoint(backend::portalsMachine(), quickParams(100_KB, 50'000));
  EXPECT_GT(gm.availability, 0.9);
  EXPECT_LT(portals.availability, 0.3);
}

// Property sweep: availability in [0,1] and bandwidth below wire for every
// machine x size x interval combination.
// gtest prints the parameter's raw bytes into the test name, so the struct
// must have no implicit padding: `pad` fills the gap after `kind` with
// zeros and keeps the names the same from run to run.
struct SweepCase {
  TransportKind kind;
  std::uint32_t pad = 0;
  Bytes size;
  std::uint64_t interval;
};
static_assert(std::has_unique_object_representations_v<SweepCase>);

class PollingSweepProperty : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PollingSweepProperty, Invariants) {
  const auto& c = GetParam();
  auto params = quickParams(c.size, c.interval);
  params.targetDuration = 8e-3;
  const auto pt = runPoint(machineFor(c.kind), params);
  EXPECT_GT(pt.availability, 0.0);
  EXPECT_LE(pt.availability, 1.0 + 1e-9);
  EXPECT_GE(pt.bandwidthBps, 0.0);
  EXPECT_LT(pt.bandwidthBps, machineFor(c.kind).fabric.link.rate);
  EXPECT_GE(pt.liveTime, pt.dryTime * (1.0 - 1e-9));
}

std::vector<SweepCase> sweepCases() {
  std::vector<SweepCase> cases;
  for (const auto kind : {TransportKind::Gm, TransportKind::Portals})
    for (const Bytes size : {10_KB, 100_KB, 300_KB})
      for (const std::uint64_t interval : {100ull, 10'000ull, 1'000'000ull})
        cases.push_back({.kind = kind, .size = size, .interval = interval});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, PollingSweepProperty,
                         ::testing::ValuesIn(sweepCases()),
                         [](const auto& suiteInfo) {
                           const auto& c = suiteInfo.param;
                           return std::string(
                                      backend::transportKindName(c.kind)) +
                                  "_" + std::to_string(c.size / 1024) +
                                  "KB_i" + std::to_string(c.interval);
                         });

}  // namespace
}  // namespace comb::bench
