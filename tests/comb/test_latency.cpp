// Ping-pong latency method + the SMP extension.
#include <gtest/gtest.h>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/units.hpp"

namespace comb::bench {
namespace {

using namespace comb::units;

TEST(Latency, PositiveAndOrdered) {
  LatencyParams p;
  p.msgBytes = 10_KB;
  p.reps = 10;
  const auto pt = runPoint(backend::gmMachine(), p);
  EXPECT_GT(pt.halfRoundTripMin, 0.0);
  EXPECT_GE(pt.halfRoundTripAvg, pt.halfRoundTripMin);
  EXPECT_GT(pt.bandwidthBps, 0.0);
  EXPECT_EQ(pt.msgBytes, 10_KB);
}

TEST(Latency, GrowsWithSize) {
  LatencyParams base;
  base.reps = 8;
  const auto pts = runSweep(
      backend::gmMachine(), sweepOver(base, {1_KB, 10_KB, 100_KB}));
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_LT(pts[0].halfRoundTripAvg, pts[1].halfRoundTripAvg);
  EXPECT_LT(pts[1].halfRoundTripAvg, pts[2].halfRoundTripAvg);
}

TEST(Latency, GmBeatsPortals) {
  LatencyParams p;
  p.msgBytes = 10_KB;
  p.reps = 8;
  const auto gm = runPoint(backend::gmMachine(), p);
  const auto portals = runPoint(backend::portalsMachine(), p);
  EXPECT_LT(gm.halfRoundTripAvg, portals.halfRoundTripAvg);
}

TEST(Latency, SteadyStateIsTight) {
  // The deterministic simulator keeps post-warm-up round trips nearly
  // identical (kernel-pump tails shift rep boundaries by a fragment or
  // two on Portals, hence "nearly").
  LatencyParams p;
  p.msgBytes = 50_KB;
  p.reps = 6;
  const auto pt = runPoint(backend::portalsMachine(), p);
  EXPECT_NEAR(pt.halfRoundTripAvg, pt.halfRoundTripMin,
              pt.halfRoundTripMin * 0.02);
}

TEST(SmpExtension, SteeringRestoresAvailability) {
  auto base = presets::pollingBase(100_KB);
  base.pollInterval = 20'000;
  base.targetDuration = 15e-3;
  const auto uni = runPoint(backend::portalsMachine(), base);

  auto smpMachine = backend::portalsMachine();
  smpMachine.cpusPerNode = 2;
  smpMachine.nicCpu = 1;
  const auto smp = runPoint(smpMachine, base);

  EXPECT_LT(uni.availability, 0.3);
  EXPECT_GT(smp.availability, 0.7);
  // Bandwidth does not degrade when the kernel work moves off-CPU.
  EXPECT_GE(smp.bandwidthBps, 0.9 * uni.bandwidthBps);
}

TEST(SmpExtension, SecondCpuCarriesTheInterrupts) {
  auto machine = backend::portalsMachine();
  machine.cpusPerNode = 2;
  machine.nicCpu = 1;
  backend::SimCluster cluster(machine, 2);
  auto sender = [](backend::SimProc& p) -> sim::Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 1, 100_KB);
  };
  auto receiver = [](backend::SimProc& p) -> sim::Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 1, 100_KB);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1)));
  cluster.run();
  // All kernel/NIC interrupt work landed on CPU 1 of each node; the
  // application CPUs only paid library/syscall compute time.
  EXPECT_DOUBLE_EQ(cluster.cpu(0, 0).isrTime(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.cpu(1, 0).isrTime(), 0.0);
  EXPECT_GT(cluster.cpu(0, 1).isrTime(), 0.0);  // tx pump
  EXPECT_GT(cluster.cpu(1, 1).isrTime(), 0.0);  // rx interrupts
  EXPECT_GT(cluster.cpu(0, 0).userTime(), 0.0);  // syscalls still local
}

TEST(SmpExtension, GmUnaffectedBySteering) {
  auto machine = backend::gmMachine();
  machine.cpusPerNode = 2;
  machine.nicCpu = 1;
  auto base = presets::pollingBase(100_KB);
  base.pollInterval = 20'000;
  base.targetDuration = 10e-3;
  const auto steered = runPoint(machine, base);
  const auto plain =
      runPoint(backend::gmMachine(), base);
  // GM raises no interrupts: steering changes nothing.
  EXPECT_DOUBLE_EQ(steered.availability, plain.availability);
  EXPECT_DOUBLE_EQ(steered.bandwidthBps, plain.bandwidthBps);
}

}  // namespace
}  // namespace comb::bench
