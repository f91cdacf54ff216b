#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/fabric.hpp"

namespace comb::net {
namespace {

using namespace comb::units;
using sim::ShardContext;

FabricConfig fabricCfg(TopologyConfig topo, int switchPorts) {
  FabricConfig cfg;
  cfg.link = {.rate = 100e6, .latency = 1_us};
  cfg.sw = {.routingLatency = 0.5_us, .ports = switchPorts};
  cfg.topo = topo;
  cfg.mtu = 4096;
  cfg.perPacketHeader = 64;
  return cfg;
}

/// Attach `n` recording nodes and run the all-pairs pattern; every node
/// must see exactly n-1 packets and no switch may drop for lack of a
/// route — the strongest wiring check there is.
void allPairsCheck(Fabric& fabric, ShardContext& sim, int n,
                   std::vector<int>& hits) {
  for (NodeId s = 0; s < n; ++s)
    for (NodeId d = 0; d < n; ++d)
      if (s != d) fabric.inject(s, d, 256, nullptr);
  sim.run();
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(hits[static_cast<std::size_t>(i)], n - 1) << "node " << i;
  const SwitchTotals t = fabric.switchTotals();
  EXPECT_EQ(t.dropsNoRoute, 0u);
  EXPECT_EQ(t.dropsQueue, 0u);
}

TEST(Topology, FatTreeAllPairsDelivery) {
  ShardContext sim;
  TopologyConfig topo;
  topo.kind = TopologyKind::FatTree;
  topo.nodesPerSwitch = 2;
  topo.spines = 2;
  Fabric fabric(sim, fabricCfg(topo, 8));  // 2*2 nodes + 2*2 trunks = 8
  const int n = 6;                         // three leaves
  std::vector<int> hits(n, 0);
  for (int i = 0; i < n; ++i)
    fabric.addNode([&hits, i](Packet) { ++hits[static_cast<std::size_t>(i)]; });
  EXPECT_EQ(fabric.capacityNodes(), -1);  // leaves appear on demand
  allPairsCheck(fabric, sim, n, hits);
  EXPECT_EQ(fabric.topology().switchCount(), 5);  // 2 spines + 3 leaves
  EXPECT_FALSE(fabric.topology().trunks().empty());
}

TEST(Topology, FatTreeCrossLeafPathIsThreeSwitches) {
  // node0 (leaf0) -> node2 (leaf1): up 1us+@, leaf 0.5us, trunk, spine,
  // trunk, leaf, down. Wire size 256+64=320B -> 3.2us serialization per
  // hop at 100 MB/s; 4 links (up, leaf->spine, spine->leaf, down) and 3
  // switch traversals.
  ShardContext sim;
  TopologyConfig topo;
  topo.kind = TopologyKind::FatTree;
  topo.nodesPerSwitch = 2;
  topo.spines = 2;
  Fabric fabric(sim, fabricCfg(topo, 8));
  Time arrival = -1.0;
  fabric.addNode([](Packet) {});
  fabric.addNode([](Packet) {});
  fabric.addNode([&](Packet) { arrival = sim.now(); });
  fabric.inject(0, 2, 256, nullptr);
  sim.run();
  EXPECT_NEAR(arrival, 4 * (3.2e-6 + 1e-6) + 3 * 0.5e-6, 1e-10);
}

TEST(Topology, DragonflyAllPairsDelivery) {
  ShardContext sim;
  TopologyConfig topo;
  topo.kind = TopologyKind::Dragonfly;
  topo.nodesPerSwitch = 2;
  topo.groups = 2;
  topo.routersPerGroup = 2;
  Fabric fabric(sim, fabricCfg(topo, 0));
  const int n = 8;
  EXPECT_EQ(fabric.capacityNodes(), 8);
  std::vector<int> hits(n, 0);
  for (int i = 0; i < n; ++i)
    fabric.addNode([&hits, i](Packet) { ++hits[static_cast<std::size_t>(i)]; });
  allPairsCheck(fabric, sim, n, hits);
  EXPECT_EQ(fabric.topology().switchCount(), 4);  // 2 groups x 2 routers
}

TEST(Topology, DragonflyCapacityEnforced) {
  ShardContext sim;
  TopologyConfig topo;
  topo.kind = TopologyKind::Dragonfly;
  topo.nodesPerSwitch = 1;
  topo.groups = 2;
  topo.routersPerGroup = 1;
  Fabric fabric(sim, fabricCfg(topo, 0));
  EXPECT_EQ(fabric.capacityNodes(), 2);
  fabric.addNode([](Packet) {});
  fabric.addNode([](Packet) {});
  EXPECT_THROW(fabric.addNode([](Packet) {}), ConfigError);
}

TEST(Topology, LargerDragonflyAllPairs) {
  ShardContext sim;
  TopologyConfig topo;
  topo.kind = TopologyKind::Dragonfly;
  topo.nodesPerSwitch = 2;
  topo.groups = 3;
  topo.routersPerGroup = 3;
  Fabric fabric(sim, fabricCfg(topo, 0));
  const int n = 18;
  std::vector<int> hits(n, 0);
  for (int i = 0; i < n; ++i)
    fabric.addNode([&hits, i](Packet) { ++hits[static_cast<std::size_t>(i)]; });
  allPairsCheck(fabric, sim, n, hits);
  EXPECT_EQ(fabric.topology().switchCount(), 9);
}

TEST(Topology, ValidateRejectsBadConfigs) {
  SwitchConfig sw;
  TopologyConfig topo;
  topo.trunkRateScale = 0.0;
  EXPECT_THROW(validateTopology(topo, sw), ConfigError);

  topo = {};
  topo.kind = TopologyKind::FatTree;
  topo.nodesPerSwitch = 8;
  topo.spines = 4;
  sw.ports = 16;  // needs 2*8 + 2*4 = 24
  EXPECT_THROW(validateTopology(topo, sw), ConfigError);
  sw.ports = 24;
  EXPECT_NO_THROW(validateTopology(topo, sw));
  sw.ports = 0;  // unlimited always fits
  EXPECT_NO_THROW(validateTopology(topo, sw));

  topo = {};
  topo.kind = TopologyKind::Dragonfly;
  topo.groups = 0;
  EXPECT_THROW(validateTopology(topo, sw), ConfigError);
}

TEST(Topology, OversubscriptionRatios) {
  TopologyConfig topo;
  EXPECT_DOUBLE_EQ(topo.oversubscription(), 1.0);  // single star

  topo.kind = TopologyKind::FatTree;
  topo.nodesPerSwitch = 4;
  topo.spines = 2;
  topo.trunkRateScale = 1.0;
  EXPECT_DOUBLE_EQ(topo.oversubscription(), 2.0);
  topo.trunkRateScale = 2.0;
  EXPECT_DOUBLE_EQ(topo.oversubscription(), 1.0);

  topo = {};
  topo.kind = TopologyKind::Dragonfly;
  topo.nodesPerSwitch = 2;
  topo.routersPerGroup = 2;
  topo.trunkRateScale = 1.0;
  EXPECT_DOUBLE_EQ(topo.oversubscription(), 4.0);
}

TEST(Topology, TrunkRateScaleAppliedToTrunks) {
  ShardContext sim;
  TopologyConfig topo;
  topo.kind = TopologyKind::FatTree;
  topo.nodesPerSwitch = 2;
  topo.spines = 1;
  topo.trunkRateScale = 2.5;
  Fabric fabric(sim, fabricCfg(topo, 6));
  fabric.addNode([](Packet) {});
  ASSERT_FALSE(fabric.topology().trunks().empty());
  for (const auto& trunk : fabric.topology().trunks())
    EXPECT_DOUBLE_EQ(trunk->config().rate, 100e6 * 2.5);
}

TEST(Topology, SingleSwitchMatchesLegacyFabric) {
  // kind=single must behave exactly like the historical one-switch star
  // (same counters, same capacity rule).
  ShardContext sim;
  TopologyConfig topo;  // default: single
  Fabric fabric(sim, fabricCfg(topo, 8));
  EXPECT_EQ(fabric.capacityNodes(), 4);
  std::vector<int> hits(3, 0);
  for (int i = 0; i < 3; ++i)
    fabric.addNode([&hits, i](Packet) { ++hits[static_cast<std::size_t>(i)]; });
  allPairsCheck(fabric, sim, 3, hits);
  EXPECT_EQ(fabric.topology().switchCount(), 1);
  EXPECT_TRUE(fabric.topology().trunks().empty());
  EXPECT_EQ(fabric.switchTotals().packetsRouted, 6u);
}

}  // namespace
}  // namespace comb::net
