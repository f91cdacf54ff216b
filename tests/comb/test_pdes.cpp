// Sharded-core (--sim-jobs) contract tests at the benchmark level:
//   * sharded runs reproduce the serial core's numbers exactly on both
//     transports and on multi-switch fabrics,
//   * repeated sharded runs are deterministic,
//   * the lookahead invariant holds when it is exactly one link latency
//     (the fat-tree default) under maximally skewed load (incast), and
//   * traced sharded runs produce a merged timeline the overlap audit
//     accepts.
// See docs/parallel_sim.md for the contracts under test.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "comb/audit.hpp"
#include "comb/congestion.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/units.hpp"

namespace comb::bench {
namespace {

using namespace comb::units;
using backend::MachineConfig;
using backend::TransportKind;

RunOptions simJobs(int n) {
  RunOptions opts;
  opts.simJobs = n;
  return opts;
}

/// Oversubscribed fat-tree: 4 nodes per leaf, one spine, finite queues.
/// Trunks share the node links' latency (Topology scales only the trunk
/// rate), so the conservative lookahead equals EXACTLY one link latency —
/// the tightest bound the partition ever runs under.
MachineConfig fatTree(TransportKind k) {
  auto m = k == TransportKind::Gm ? backend::gmMachine()
                                  : backend::portalsMachine();
  m.fabric.sw.ports = 0;
  m.fabric.topo.kind = net::TopologyKind::FatTree;
  m.fabric.topo.nodesPerSwitch = 4;
  m.fabric.topo.spines = 1;
  m.fabric.topo.trunkRateScale = 0.5;
  m.fabric.sw.queue.depthPackets = 16;
  return m;
}

CongestionParams congestion(CongestionPattern pattern, std::uint64_t nodes) {
  CongestionParams p;
  p.pattern = pattern;
  p.nodes = nodes;
  p.msgBytes = 16_KB;
  p.messagesPerSender = 2;
  p.window = 4;
  return p;
}

void expectSameCongestion(const CongestionPoint& a, const CongestionPoint& b) {
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bandwidthBps, b.bandwidthBps);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.minAvailability, b.minAvailability);
  EXPECT_EQ(a.meanNodeBandwidthBps, b.meanNodeBandwidthBps);
  EXPECT_EQ(a.minNodeBandwidthBps, b.minNodeBandwidthBps);
  EXPECT_EQ(a.messagesDelivered, b.messagesDelivered);
  EXPECT_EQ(a.nodeBandwidthBps, b.nodeBandwidthBps);
  EXPECT_EQ(a.nodeAvailability, b.nodeAvailability);
  EXPECT_EQ(a.switches.packetsRouted, b.switches.packetsRouted);
  EXPECT_EQ(a.switches.dropsQueue, b.switches.dropsQueue);
  EXPECT_EQ(a.switches.creditStalls, b.switches.creditStalls);
  EXPECT_EQ(a.switches.queuePeakPackets, b.switches.queuePeakPackets);
}

TEST(Pdes, ShardedPollingMatchesSerialBitIdentical) {
  for (const auto kind : {TransportKind::Gm, TransportKind::Portals}) {
    const auto machine = kind == TransportKind::Gm
                             ? backend::gmMachine()
                             : backend::portalsMachine();
    auto params = presets::pollingBase(100 * 1024);
    params.targetDuration = 3e-3;
    params.maxPolls = 5'000;
    const auto serial = runPoint(machine, params);
    const auto sharded = runPoint(machine, params, simJobs(2));
    EXPECT_EQ(serial.bandwidthBps, sharded.bandwidthBps) << machine.name;
    EXPECT_EQ(serial.availability, sharded.availability) << machine.name;
    EXPECT_EQ(serial.messagesReceived, sharded.messagesReceived)
        << machine.name;
    EXPECT_EQ(serial.pollsExecuted, sharded.pollsExecuted) << machine.name;
  }
}

TEST(Pdes, ShardedPwwMatchesSerialBitIdentical) {
  for (const auto kind : {TransportKind::Gm, TransportKind::Portals}) {
    const auto machine = kind == TransportKind::Gm
                             ? backend::gmMachine()
                             : backend::portalsMachine();
    auto params = presets::pwwBase(100 * 1024);
    params.workInterval = 200'000;
    const auto serial = runPoint(machine, params);
    const auto sharded = runPoint(machine, params, simJobs(2));
    EXPECT_EQ(serial.bandwidthBps, sharded.bandwidthBps) << machine.name;
    EXPECT_EQ(serial.availability, sharded.availability) << machine.name;
    EXPECT_EQ(serial.avgPostPerOp, sharded.avgPostPerOp) << machine.name;
    EXPECT_EQ(serial.avgWork, sharded.avgWork) << machine.name;
    EXPECT_EQ(serial.avgWaitPerMsg, sharded.avgWaitPerMsg) << machine.name;
  }
}

TEST(Pdes, ShardedCongestionOnFatTreeMatchesSerial) {
  // Multi-switch fabric: cross-leaf traffic crosses shards through the
  // trunks. 8 nodes over 2 leaves, 4 shards => 2 leaf blocks spread over
  // the shards, every pattern exercised.
  for (const auto pattern :
       {CongestionPattern::Incast, CongestionPattern::Hotspot,
        CongestionPattern::AllToAll}) {
    const auto machine = fatTree(TransportKind::Gm);
    const auto params = congestion(pattern, 8);
    const auto serial = runPoint(machine, params);
    const auto sharded = runPoint(machine, params, simJobs(4));
    expectSameCongestion(serial, sharded);
  }
}

TEST(Pdes, ShardSkewIncastAtExactLookahead) {
  // Regression for the tightest legal window: incast concentrates every
  // event on the victim's shard while the sender shards race ahead, and
  // the lookahead equals exactly one link latency. Any off-by-one in the
  // window bound (events at the boundary, messages landing exactly at
  // windowEnd) shows up as divergence from the serial run here.
  const auto machine = fatTree(TransportKind::Portals);
  const auto params = congestion(CongestionPattern::Incast, 8);
  const auto serial = runPoint(machine, params);
  const auto sharded = runPoint(machine, params, simJobs(2));
  expectSameCongestion(serial, sharded);
}

TEST(Pdes, ShardedRunsAreDeterministic) {
  const auto machine = fatTree(TransportKind::Gm);
  const auto params = congestion(CongestionPattern::AllToAll, 8);
  const auto first = runPoint(machine, params, simJobs(4));
  for (int i = 0; i < 2; ++i) {
    const auto again = runPoint(machine, params, simJobs(4));
    expectSameCongestion(first, again);
  }
}

TEST(Pdes, TracedShardedRunPassesOverlapAudit) {
  // Per-shard trace logs merged into one timeline must still satisfy the
  // trace-driven overlap audit (span pairing intact, per-node ordering
  // preserved, availability reproduced from span data).
  auto params = presets::pollingBase(100 * 1024);
  params.targetDuration = 3e-3;
  params.maxPolls = 5'000;
  const auto serial = runPointTraced(backend::gmMachine(), params);
  const auto sharded =
      runPointTraced(backend::gmMachine(), params, simJobs(2));
  ASSERT_NE(sharded.trace, nullptr);
  EXPECT_EQ(serial.point.bandwidthBps, sharded.point.bandwidthBps);
  EXPECT_EQ(serial.trace->size(), sharded.trace->size());
  const auto audit = auditPolling(*sharded.trace, 0);
  EXPECT_EQ(checkPolling(audit, sharded.point), "");
}

TEST(Pdes, ShardLookaheadMatrixCertifiedAgainstTopology) {
  // The matrix SimCluster derives from the wired fat-tree must (a) keep
  // every entry at or above the certified scalar floor, (b) equal the
  // true minimum cross-leaf path: one trunk hop — latency plus the
  // per-packet header serialized at the (scaled) trunk rate — because a
  // trunk arrival posts directly onto the egress shard, and (c) be
  // symmetric on this symmetric fabric, with the diagonal holding the
  // round-trip feedback cycle.
  const auto machine = fatTree(TransportKind::Gm);
  backend::SimCluster cluster(machine, 8, /*simJobs=*/2);
  const auto& exec = cluster.executor();
  ASSERT_TRUE(exec.parallel());
  ASSERT_EQ(exec.shardCount(), 2);
  EXPECT_TRUE(exec.lookaheadFromMatrix());
  const auto& m = exec.lookaheadMatrix();
  const auto& f = machine.fabric;
  const double trunkRate = f.link.rate * f.topo.trunkRateScale;
  const Time oneTrunkHop =
      f.link.latency + static_cast<Time>(f.perPacketHeader) / trunkRate;
  for (const Time entry : m) {
    ASSERT_TRUE(std::isfinite(entry));
    EXPECT_GE(entry, exec.lookahead());  // certified scalar floor
  }
  EXPECT_DOUBLE_EQ(m[0 * 2 + 1], oneTrunkHop);
  EXPECT_EQ(m[0 * 2 + 1], m[1 * 2 + 0]);  // symmetric fabric
  EXPECT_DOUBLE_EQ(m[0 * 2 + 0], 2 * oneTrunkHop);  // feedback cycle
  EXPECT_DOUBLE_EQ(m[1 * 2 + 1], 2 * oneTrunkHop);
  EXPECT_DOUBLE_EQ(exec.effectiveLookahead(), oneTrunkHop);
  EXPECT_GT(exec.effectiveLookahead(), exec.lookahead());
}

TEST(Pdes, SingleNodeShardsOnStarMatchSerial) {
  // Star partition grain = 1 node, so simJobs = nodes gives the finest
  // legal partition: every shard hosts exactly one node and *all*
  // traffic crosses shards.
  const auto machine = backend::gmMachine();
  const auto params = congestion(CongestionPattern::AllToAll, 4);
  const auto serial = runPoint(machine, params);
  const auto sharded = runPoint(machine, params, simJobs(4));
  expectSameCongestion(serial, sharded);
}

TEST(Pdes, PartitionClampsShardsToWholeBlocks) {
  // 8 nodes over 2 fat-tree leaves: at most 2 blocks, so any simJobs
  // above that must clamp to 2 shards — blocks never split.
  const auto machine = fatTree(TransportKind::Gm);
  backend::SimCluster cluster(machine, 8, /*simJobs=*/5);
  EXPECT_EQ(cluster.executor().shardCount(), 2);
  // All four nodes of a leaf land on that leaf's shard.
  for (int rank = 0; rank < 4; ++rank) EXPECT_EQ(cluster.shardOf(rank), 0);
  for (int rank = 4; rank < 8; ++rank) EXPECT_EQ(cluster.shardOf(rank), 1);
}

TEST(Pdes, SimJobsAboveBlockCountClampsAndStillMatches) {
  // More shards requested than partition blocks: the effective shard
  // count clamps (2 nodes on a star => 2 blocks) and results still match
  // the serial core.
  auto params = presets::pollingBase(10 * 1024);
  params.targetDuration = 3e-3;
  params.maxPolls = 2'000;
  const auto serial = runPoint(backend::gmMachine(), params);
  const auto sharded =
      runPoint(backend::gmMachine(), params, simJobs(64));
  EXPECT_EQ(serial.bandwidthBps, sharded.bandwidthBps);
  EXPECT_EQ(serial.messagesReceived, sharded.messagesReceived);
}

}  // namespace
}  // namespace comb::bench
