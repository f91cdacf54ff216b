// Congestion extension: traffic-matrix algebra, pairwise invariance on a
// non-blocking fabric (the ext_multipair regression), incast fan-in
// sanity, backpressure monotonicity in oversubscription, and parallel
// sweep bit-identity.
#include "comb/congestion.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "backend/machine.hpp"
#include "common/error.hpp"
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

/// Single unlimited crossbar — the idealized non-blocking fabric.
MachineConfig starMachine(TransportKind k) {
  auto m = machineFor(k);
  m.fabric.sw.ports = 0;
  return m;
}

/// Small fat-tree under finite queues: 4 nodes per leaf, one spine, so
/// cross-leaf traffic funnels through single trunks.
MachineConfig fatTreeMachine(TransportKind k, double trunkScale,
                             net::Backpressure bp) {
  auto m = machineFor(k);
  m.fabric.sw.ports = 0;
  m.fabric.topo.kind = net::TopologyKind::FatTree;
  m.fabric.topo.nodesPerSwitch = 4;
  m.fabric.topo.spines = 1;
  m.fabric.topo.trunkRateScale = trunkScale;
  m.fabric.sw.queue.depthPackets = 16;
  m.fabric.sw.queue.backpressure = bp;
  return m;
}

CongestionParams quickParams(CongestionPattern pattern, std::uint64_t nodes) {
  CongestionParams p;
  p.pattern = pattern;
  p.nodes = nodes;
  p.msgBytes = 16_KB;
  p.messagesPerSender = 2;
  p.window = 4;
  return p;
}

TEST(CongestionMatrix, SendAndReceiveTotalsBalance) {
  for (const auto pattern : {CongestionPattern::Incast,
                             CongestionPattern::Hotspot,
                             CongestionPattern::AllToAll}) {
    CongestionParams p = quickParams(pattern, 9);
    std::uint64_t sent = 0, expected = 0;
    for (int r = 0; r < 9; ++r) {
      const auto dests = congestionDests(p, r);
      sent += dests.size();
      expected += congestionExpectedRecvs(p, r);
      for (const int d : dests) {
        EXPECT_NE(d, r) << "self-send in " << congestionPatternName(pattern);
        EXPECT_GE(d, 0);
        EXPECT_LT(d, 9);
      }
    }
    EXPECT_EQ(sent, expected) << congestionPatternName(pattern);
  }
}

// congestionExpectedRecvs is closed-form; it must equal the column sums
// of the matrix congestionDests builds, for every pattern and size.
TEST(CongestionMatrix, ExpectedRecvsMatchBruteForceColumnSums) {
  for (const auto pattern : {CongestionPattern::Incast,
                             CongestionPattern::Hotspot,
                             CongestionPattern::AllToAll}) {
    for (int n = 2; n <= 64; ++n) {
      for (int m = 1; m <= 9; ++m) {
        CongestionParams p =
            quickParams(pattern, static_cast<std::uint64_t>(n));
        p.messagesPerSender = m;
        std::vector<std::uint64_t> column(static_cast<std::size_t>(n), 0);
        for (int s = 0; s < n; ++s)
          for (const int d : congestionDests(p, s))
            ++column[static_cast<std::size_t>(d)];
        for (int r = 0; r < n; ++r)
          ASSERT_EQ(congestionExpectedRecvs(p, r),
                    column[static_cast<std::size_t>(r)])
              << congestionPatternName(pattern) << " n=" << n << " m=" << m
              << " rank " << r;
      }
    }
  }
}

TEST(CongestionMatrix, IncastTargetsNodeZero) {
  CongestionParams p = quickParams(CongestionPattern::Incast, 8);
  EXPECT_TRUE(congestionDests(p, 0).empty());
  EXPECT_EQ(congestionExpectedRecvs(p, 0), 7u * 2u);
  for (int r = 1; r < 8; ++r) {
    for (const int d : congestionDests(p, r)) EXPECT_EQ(d, 0);
    EXPECT_EQ(congestionExpectedRecvs(p, r), 0u);
  }
}

TEST(CongestionMatrix, AllToAllIsBalanced) {
  CongestionParams p = quickParams(CongestionPattern::AllToAll, 6);
  p.messagesPerSender = 5;  // one message to every other node
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(congestionDests(p, r).size(), 5u);
    EXPECT_EQ(congestionExpectedRecvs(p, r), 5u);
  }
}

TEST(CongestionMatrix, HotspotMixesHotAndColdTraffic) {
  CongestionParams p = quickParams(CongestionPattern::Hotspot, 8);
  p.messagesPerSender = 4;
  const auto dests = congestionDests(p, 3);
  ASSERT_EQ(dests.size(), 4u);
  int hot = 0;
  for (const int d : dests) hot += d == 0 ? 1 : 0;
  EXPECT_EQ(hot, 2);
  EXPECT_EQ(dests[1], 4);  // ring neighbour carries the background load
}

// The ext_multipair regression: on a non-blocking crossbar, disjoint
// communication (the pairwise all-to-all ring with one exchange partner
// per step) must not slow down as more nodes join — mean sender goodput
// stays flat within a few percent from 4 to 16 nodes.
TEST(Congestion, PairwiseInvariantOnNonBlockingFabric) {
  for (const auto kind : {TransportKind::Gm, TransportKind::Portals}) {
    const auto machine = starMachine(kind);
    std::vector<double> mean;
    for (const std::uint64_t n : {4ull, 8ull, 16ull}) {
      const auto pt = runPoint(
          machine, quickParams(CongestionPattern::AllToAll, n));
      EXPECT_EQ(pt.messagesDelivered, n * 2u);
      EXPECT_EQ(pt.switches.dropsNoRoute, 0u);
      mean.push_back(pt.meanNodeBandwidthBps);
    }
    for (std::size_t i = 1; i < mean.size(); ++i) {
      EXPECT_NEAR(mean[i], mean[0], mean[0] * 0.10)
          << "transport " << static_cast<int>(kind) << " step " << i;
    }
  }
}

// Incast sanity: with every sender aimed at node 0, the victim downlink
// is the bottleneck, so per-sender goodput must fall as fan-in grows.
TEST(Congestion, IncastPerSenderBandwidthFallsWithFanIn) {
  for (const auto kind : {TransportKind::Gm, TransportKind::Portals}) {
    const auto machine = starMachine(kind);
    double prev = 0.0;
    bool first = true;
    for (const std::uint64_t n : {4ull, 8ull, 16ull}) {
      const auto pt = runPoint(
          machine, quickParams(CongestionPattern::Incast, n));
      EXPECT_EQ(pt.messagesDelivered, (n - 1) * 2u);
      EXPECT_GT(pt.minNodeBandwidthBps, 0.0);
      if (!first) EXPECT_LT(pt.meanNodeBandwidthBps, prev);
      prev = pt.meanNodeBandwidthBps;
      first = false;
    }
  }
}

// Credit backpressure keeps the fabric lossless: no queue drops, no
// retransmissions, and a slower trunk strictly stretches the pattern.
// (Total stall *counts* are not monotone in trunk slowdown — a choked
// trunk admits remote packets to the victim's queue more gently — so the
// makespan is the assertable congestion signal; stalls just have to show
// up somewhere.)
TEST(Congestion, CreditBackpressureLosslessUnderOversubscription) {
  const CongestionParams p = quickParams(CongestionPattern::Incast, 8);
  std::vector<Time> makespan;
  std::uint64_t stalls = 0;
  for (const double scale : {1.0, 0.25}) {
    const auto machine =
        fatTreeMachine(TransportKind::Gm, scale, net::Backpressure::Credit);
    const auto pt = runPoint(machine, p);
    EXPECT_EQ(pt.messagesDelivered, 14u);
    EXPECT_EQ(pt.switches.dropsQueue, 0u);
    EXPECT_EQ(pt.fault.retransmits, 0u);  // lossless: protocol never engages
    makespan.push_back(pt.makespan);
    stalls += pt.switches.creditStalls;
  }
  EXPECT_GT(makespan[1], makespan[0]);
  EXPECT_GT(stalls, 0u);
}

// Tail-drop marks the fabric lossy (transport retransmission engages) and
// drops are monotone in oversubscription.
TEST(Congestion, TailDropsMonotoneInOversubscription) {
  const CongestionParams p = quickParams(CongestionPattern::Incast, 8);
  std::vector<std::uint64_t> drops;
  for (const double scale : {1.0, 0.25}) {
    const auto machine =
        fatTreeMachine(TransportKind::Gm, scale, net::Backpressure::TailDrop);
    const auto pt = runPoint(machine, p);
    // Retransmission guarantees delivery despite the drops.
    EXPECT_EQ(pt.messagesDelivered, 14u);
    drops.push_back(pt.switches.dropsQueue);
  }
  EXPECT_GE(drops[1], drops[0]);
  EXPECT_GT(drops[1], 0u);
}

TEST(Congestion, QueuePeakObservedUnderContention) {
  const auto machine =
      fatTreeMachine(TransportKind::Gm, 0.5, net::Backpressure::Credit);
  const auto pt =
      runPoint(machine, quickParams(CongestionPattern::Incast, 8));
  EXPECT_GT(pt.switches.queuePeakPackets, 0u);
}

TEST(Congestion, SweepParallelIsBitIdentical) {
  const auto machine = starMachine(TransportKind::Gm);
  auto spec = sweepOver(quickParams(CongestionPattern::Hotspot, 4),
                        {4ull, 6ull, 8ull});
  RunOptions serial;
  serial.jobs = 1;
  RunOptions parallel;
  parallel.jobs = 4;
  const auto a = runSweep(machine, spec, serial);
  const auto b = runSweep(machine, spec, parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].bandwidthBps, b[i].bandwidthBps);
    EXPECT_EQ(a[i].makespan, b[i].makespan);
    EXPECT_EQ(a[i].availability, b[i].availability);
    ASSERT_EQ(a[i].nodeBandwidthBps.size(), b[i].nodeBandwidthBps.size());
    for (std::size_t j = 0; j < a[i].nodeBandwidthBps.size(); ++j)
      EXPECT_EQ(a[i].nodeBandwidthBps[j], b[i].nodeBandwidthBps[j]);
  }
}

TEST(Congestion, RepsIdenticalOnLosslessFabric) {
  const auto machine = starMachine(TransportKind::Portals);
  RunOptions opts;
  opts.rep.reps = 3;
  const auto run = runPointReps(
      machine, quickParams(CongestionPattern::Incast, 4), opts);
  ASSERT_EQ(run.reps.size(), 3u);
  for (const auto& rep : run.reps) {
    EXPECT_EQ(rep.bandwidthBps, run.reps[0].bandwidthBps);
    EXPECT_EQ(rep.makespan, run.reps[0].makespan);
  }
  EXPECT_EQ(run.bandwidthCi.halfWidth(), 0.0);
}

TEST(Congestion, RejectsBadParameters) {
  const auto machine = starMachine(TransportKind::Gm);
  CongestionParams p = quickParams(CongestionPattern::Incast, 1);
  EXPECT_THROW(runPoint(machine, p), ConfigError);
  p = quickParams(CongestionPattern::Incast, 4);
  p.window = 0;
  EXPECT_THROW(runPoint(machine, p), ConfigError);
}

TEST(Congestion, AvailabilityWithinUnitInterval) {
  for (const auto kind : {TransportKind::Gm, TransportKind::Portals}) {
    const auto pt = runPoint(
        starMachine(kind), quickParams(CongestionPattern::AllToAll, 6));
    EXPECT_GT(pt.availability, 0.0);
    EXPECT_LE(pt.availability, 1.0 + 1e-9);
    EXPECT_GT(pt.minAvailability, 0.0);
    for (const double a : pt.nodeAvailability) EXPECT_LE(a, 1.0 + 1e-9);
  }
}

}  // namespace
}  // namespace comb::bench
