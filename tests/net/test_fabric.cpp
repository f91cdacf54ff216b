#include "net/fabric.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/switch.hpp"

namespace comb::net {
namespace {

using namespace comb::units;
using sim::ShardContext;

FabricConfig cfg2() {
  FabricConfig cfg;
  cfg.link = {.rate = 100e6, .latency = 1_us};
  cfg.sw = {.routingLatency = 0.5_us, .ports = 8};
  cfg.mtu = 4096;
  cfg.perPacketHeader = 64;
  return cfg;
}

struct TwoNodeFixture {
  ShardContext sim;
  Fabric fabric{sim, cfg2()};
  std::vector<Packet> at0, at1;
  NodeId n0, n1;

  TwoNodeFixture() {
    n0 = fabric.addNode([this](Packet p) { at0.push_back(std::move(p)); });
    n1 = fabric.addNode([this](Packet p) { at1.push_back(std::move(p)); });
  }
};

TEST(Fabric, EndToEndDelivery) {
  TwoNodeFixture f;
  f.fabric.inject(f.n0, f.n1, 1000, nullptr);
  f.sim.run();
  ASSERT_EQ(f.at1.size(), 1u);
  EXPECT_TRUE(f.at0.empty());
  EXPECT_EQ(f.at1[0].src, f.n0);
  EXPECT_EQ(f.at1[0].dst, f.n1);
  // Wire size includes the header.
  EXPECT_EQ(f.at1[0].wireBytes, 1064u);
}

TEST(Fabric, EndToEndTimingTwoHops) {
  TwoNodeFixture f;
  Time arrival = -1;
  f.fabric.inject(f.n0, f.n1, 1000, nullptr);
  f.sim.setTrace([&](Time, std::uint64_t) {});
  f.sim.run();
  arrival = f.sim.now();
  // up: 1064B/100MBps = 10.64us + 1us latency; switch: 0.5us;
  // down: 10.64us + 1us.
  EXPECT_NEAR(arrival, 10.64e-6 + 1e-6 + 0.5e-6 + 10.64e-6 + 1e-6, 1e-10);
}

TEST(Fabric, BothDirectionsSimultaneously) {
  TwoNodeFixture f;
  f.fabric.inject(f.n0, f.n1, 500, nullptr);
  f.fabric.inject(f.n1, f.n0, 500, nullptr);
  f.sim.run();
  EXPECT_EQ(f.at0.size(), 1u);
  EXPECT_EQ(f.at1.size(), 1u);
}

TEST(Fabric, PacketSequenceNumbersIncrease) {
  TwoNodeFixture f;
  f.fabric.inject(f.n0, f.n1, 10, nullptr);
  f.fabric.inject(f.n0, f.n1, 10, nullptr);
  f.fabric.inject(f.n1, f.n0, 10, nullptr);
  f.sim.run();
  ASSERT_EQ(f.at1.size(), 2u);
  EXPECT_LT(f.at1[0].seq, f.at1[1].seq);
  EXPECT_EQ(f.fabric.packetsInjected(), 3u);
}

TEST(Fabric, InOrderDeliveryPerPath) {
  TwoNodeFixture f;
  for (int i = 0; i < 20; ++i) f.fabric.inject(f.n0, f.n1, 4096, nullptr);
  f.sim.run();
  ASSERT_EQ(f.at1.size(), 20u);
  for (size_t i = 1; i < f.at1.size(); ++i)
    EXPECT_LT(f.at1[i - 1].seq, f.at1[i].seq);
}

TEST(Fabric, MtuEnforced) {
  TwoNodeFixture f;
  EXPECT_THROW(f.fabric.inject(f.n0, f.n1, 4097, nullptr), ConfigError);
}

TEST(Fabric, BadNodeIdsRejected) {
  TwoNodeFixture f;
  EXPECT_THROW(f.fabric.inject(-1, 1, 10, nullptr), ConfigError);
  EXPECT_THROW(f.fabric.inject(0, 7, 10, nullptr), ConfigError);
}

TEST(Fabric, ManyNodesStarTopology) {
  ShardContext sim;
  Fabric fabric(sim, cfg2());
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 4; ++i)
    fabric.addNode([&hits, i](Packet) { ++hits[static_cast<size_t>(i)]; });
  // Every node sends one packet to every other node.
  for (NodeId s = 0; s < 4; ++s)
    for (NodeId d = 0; d < 4; ++d)
      if (s != d) fabric.inject(s, d, 100, nullptr);
  sim.run();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(hits[static_cast<size_t>(i)], 3);
  EXPECT_EQ(fabric.centralSwitch().packetsRouted(), 12u);
  EXPECT_EQ(fabric.centralSwitch().dropsNoRoute(), 0u);
}

TEST(Fabric, SwitchPortLimitEnforced) {
  // Port accounting is unidirectional: a node consumes one input port
  // (its uplink) AND one output port (its downlink), so 4 switch ports
  // host exactly 2 nodes. The old code only counted outputs and would
  // have accepted 4.
  ShardContext sim;
  FabricConfig cfg = cfg2();
  cfg.sw.ports = 4;
  Fabric fabric(sim, cfg);
  EXPECT_EQ(fabric.capacityNodes(), 2);
  fabric.addNode([](Packet) {});
  fabric.addNode([](Packet) {});
  EXPECT_THROW(fabric.addNode([](Packet) {}), ConfigError);
  EXPECT_EQ(fabric.centralSwitch().portsUsed(), 4);
}

TEST(Fabric, OutputContentionSerializes) {
  // Two senders to the same destination share the destination downlink.
  ShardContext sim;
  Fabric fabric(sim, cfg2());
  std::vector<Time> arrivals;
  const NodeId sink =
      fabric.addNode([&](Packet) { arrivals.push_back(sim.now()); });
  const NodeId a = fabric.addNode([](Packet) {});
  const NodeId b = fabric.addNode([](Packet) {});
  fabric.inject(a, sink, 4000, nullptr);
  fabric.inject(b, sink, 4000, nullptr);
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Second packet arrives roughly one serialization (40.64us) after the
  // first: the downlink is the bottleneck.
  EXPECT_NEAR(arrivals[1] - arrivals[0], 40.64e-6, 1e-9);
}

struct Tag : PayloadBase {
  static constexpr PayloadKind kPayloadKind = PayloadKind::Test;
  int v;
  explicit Tag(int x) : PayloadBase(kPayloadKind), v(x) {}
};

TEST(Fabric, PayloadSurvivesTransit) {
  TwoNodeFixture f;
  f.fabric.inject(f.n0, f.n1, 8, makePayload<Tag>(99));
  f.sim.run();
  ASSERT_EQ(f.at1.size(), 1u);
  const Tag* tag = payloadAs<Tag>(f.at1[0]);
  ASSERT_NE(tag, nullptr);
  EXPECT_EQ(tag->v, 99);
}

}  // namespace
}  // namespace comb::net
