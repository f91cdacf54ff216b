#include "net/switch.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/fabric.hpp"
#include "sim/tracelog.hpp"

namespace comb::net {
namespace {

using namespace comb::units;
using sim::ShardContext;

Packet mkPacket(NodeId src, NodeId dst, Bytes wire, std::uint64_t seq) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.wireBytes = wire;
  p.seq = seq;
  return p;
}

struct SwitchFixture {
  ShardContext sim;
  LinkConfig linkCfg{.rate = 100e6, .latency = 1_us};
  std::unique_ptr<Switch> sw;
  std::vector<std::unique_ptr<Link>> links;
  std::vector<std::vector<Packet>> delivered;

  explicit SwitchFixture(SwitchConfig cfg) {
    sw = std::make_unique<Switch>(sim, cfg, "sw");
  }

  /// Wire destination `node` to a fresh downlink that records arrivals.
  void addDest(NodeId node) {
    auto link = std::make_unique<Link>(sim, linkCfg, "down" + std::to_string(node));
    delivered.resize(static_cast<std::size_t>(node) + 1);
    link->setSink([this, node](Packet p) {
      delivered[static_cast<std::size_t>(node)].push_back(std::move(p));
    });
    sw->attachOutput(node, *link);
    links.push_back(std::move(link));
  }
};

TEST(Switch, PortBudgetCountsInputsAndOutputs) {
  ShardContext sim;
  SwitchConfig cfg;
  cfg.ports = 3;
  Switch sw(sim, cfg, "sw");
  LinkConfig lc;
  Link out0(sim, lc, "o0");
  Link out1(sim, lc, "o1");
  EXPECT_EQ(sw.attachInput("up0"), 0);
  sw.attachOutput(0, out0);
  sw.attachOutput(1, out1);
  EXPECT_EQ(sw.portsUsed(), 3);
  EXPECT_EQ(sw.inputCount(), 1);
  EXPECT_EQ(sw.outputCount(), 2);
  // Budget exhausted: both directions must refuse.
  Link out2(sim, lc, "o2");
  EXPECT_THROW(sw.attachInput("up1"), ConfigError);
  EXPECT_THROW(sw.attachOutput(2, out2), ConfigError);
}

TEST(Switch, ZeroPortsMeansUnlimited) {
  ShardContext sim;
  SwitchConfig cfg;
  cfg.ports = 0;
  Switch sw(sim, cfg, "sw");
  LinkConfig lc;
  std::vector<std::unique_ptr<Link>> outs;
  for (int i = 0; i < 40; ++i) {
    sw.attachInput("in");
    outs.push_back(std::make_unique<Link>(sim, lc, "o"));
    sw.attachOutput(i, *outs.back());
  }
  EXPECT_EQ(sw.portsUsed(), 80);
}

TEST(Switch, NoRouteCountsAndDoesNotDeliver) {
  SwitchFixture f({});
  f.addDest(0);
  f.sw->inject(mkPacket(5, 7, 100, 1));  // 7 has no route
  f.sw->inject(mkPacket(5, 0, 100, 2));
  f.sim.run();
  EXPECT_EQ(f.sw->dropsNoRoute(), 1u);
  EXPECT_EQ(f.sw->packetsRouted(), 1u);
  ASSERT_EQ(f.delivered[0].size(), 1u);
  EXPECT_EQ(f.delivered[0][0].seq, 2u);
}

TEST(Switch, UnboundedPathDelivers) {
  SwitchFixture f({});
  f.addDest(0);
  f.addDest(1);
  for (int i = 0; i < 5; ++i) f.sw->inject(mkPacket(2, i % 2, 1000, 10u + i));
  f.sim.run();
  EXPECT_EQ(f.delivered[0].size(), 3u);
  EXPECT_EQ(f.delivered[1].size(), 2u);
  EXPECT_EQ(f.sw->dropsQueue(), 0u);
  EXPECT_EQ(f.sw->queuePeakPackets(), 0u);  // bounded-queue machinery off
}

// The idealized crossbar hands a packet to the output link at inject
// time: a packet crossing a star costs its uplink and downlink arrivals
// only, and lands exactly where a separate routing event would put it.
TEST(Switch, IdealizedStarCostsTwoEventsPerPacket) {
  ShardContext sim;
  FabricConfig cfg;
  cfg.link.rate = 100e6;
  cfg.link.latency = 1_us;
  cfg.sw.routingLatency = 0.5_us;
  Fabric fabric(sim, cfg);
  std::vector<Time> arrivals;
  fabric.addNode([](Packet) {});
  fabric.addNode([&](Packet) { arrivals.push_back(sim.now()); });
  fabric.inject(0, 1, 1000, nullptr);
  sim.run();
  EXPECT_EQ(sim.eventsExecuted(), 2u);
  ASSERT_EQ(arrivals.size(), 1u);
  const Time occupy = transferTime(1000 + cfg.perPacketHeader, cfg.link.rate);
  const Time atSwitch = occupy + cfg.link.latency;  // injected at t = 0
  const Time start = atSwitch + cfg.sw.routingLatency;
  EXPECT_EQ(arrivals[0], start + occupy + cfg.link.latency);
}

TEST(Switch, ConvergingInputsAtOneInstantKeepFifoOrder) {
  ShardContext sim;
  FabricConfig cfg;
  cfg.link.rate = 100e6;
  cfg.link.latency = 1_us;
  Fabric fabric(sim, cfg);
  std::vector<Packet> got;
  std::vector<Time> at;
  fabric.addNode([](Packet) {});
  fabric.addNode([](Packet) {});
  fabric.addNode([&](Packet p) {
    got.push_back(std::move(p));
    at.push_back(sim.now());
  });
  // Identical uplinks: both packets reach the switch at the same instant.
  fabric.inject(1, 2, 1000, nullptr);
  fabric.inject(0, 2, 1000, nullptr);
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].src, 1);
  EXPECT_EQ(got[1].src, 0);
  // The second serializes behind the first on the shared downlink.
  EXPECT_DOUBLE_EQ(at[1] - at[0],
                   transferTime(1000 + cfg.perPacketHeader, cfg.link.rate));
}

TEST(Switch, DownlinkDropIsTracedAtRoutingTime) {
  SwitchConfig cfg;
  cfg.routingLatency = 0.5_us;
  SwitchFixture f(cfg);
  f.linkCfg.fault = parseFaultSpec("drop=1,seed=1");
  f.addDest(0);
  sim::TraceLog log;
  f.sim.attachTraceLog(&log);
  f.sim.scheduleAt(3_us, [&f] { f.sw->inject(mkPacket(1, 0, 100, 4)); });
  f.sim.run();
  EXPECT_TRUE(f.delivered[0].empty());
  ASSERT_EQ(log.count(sim::TraceCategory::Fault), 1u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    const sim::TraceRecord& r = log.record(i);
    if (r.cat != sim::TraceCategory::Fault) continue;
    EXPECT_EQ(log.labelName(r.label), "down0:drop");
    EXPECT_EQ(r.t, 3_us + cfg.routingLatency);
  }
}

TEST(Switch, EventsPerPacketByQueueModel) {
  // Unbounded: the downlink arrival only. Bounded: the routing event
  // that enqueues, the downlink arrival and the drain re-check.
  for (const int depth : {0, 4}) {
    SCOPED_TRACE(depth);
    SwitchConfig cfg;
    cfg.queue.depthPackets = depth;
    SwitchFixture f(cfg);
    f.addDest(0);
    f.sw->inject(mkPacket(1, 0, 100, 1));
    f.sim.run();
    ASSERT_EQ(f.delivered[0].size(), 1u);
    EXPECT_EQ(f.sim.eventsExecuted(), depth == 0 ? 1u : 3u);
  }
}

TEST(Switch, TailDropOverflowsFiniteQueue) {
  SwitchConfig cfg;
  cfg.queue.depthPackets = 2;
  cfg.queue.backpressure = Backpressure::TailDrop;
  SwitchFixture f(cfg);
  f.addDest(0);
  const int in = f.sw->attachInput("up");
  // Burst of 8 into one output: 1 drains immediately, 2 queue, rest drop.
  for (int i = 0; i < 8; ++i)
    f.sw->inject(in, mkPacket(1, 0, 1000, static_cast<std::uint64_t>(i)));
  f.sim.run();
  EXPECT_GT(f.sw->dropsQueue(), 0u);
  EXPECT_EQ(f.sw->dropsQueue() + f.delivered[0].size(), 8u);
  EXPECT_LE(f.sw->queuePeakPackets(), 2u);
  EXPECT_GT(f.sw->queuePeakPackets(), 0u);
  // Survivors arrive in order.
  for (std::size_t i = 1; i < f.delivered[0].size(); ++i)
    EXPECT_LT(f.delivered[0][i - 1].seq, f.delivered[0][i].seq);
}

TEST(Switch, CreditBackpressureIsLossless) {
  SwitchConfig cfg;
  cfg.queue.depthPackets = 2;
  cfg.queue.backpressure = Backpressure::Credit;
  SwitchFixture f(cfg);
  f.addDest(0);
  const int in = f.sw->attachInput("up");
  for (int i = 0; i < 8; ++i)
    f.sw->inject(in, mkPacket(1, 0, 1000, static_cast<std::uint64_t>(i)));
  f.sim.run();
  EXPECT_EQ(f.delivered[0].size(), 8u);
  EXPECT_EQ(f.sw->dropsQueue(), 0u);
  EXPECT_GT(f.sw->creditStalls(), 0u);
  for (std::size_t i = 1; i < 8; ++i)
    EXPECT_LT(f.delivered[0][i - 1].seq, f.delivered[0][i].seq);
}

TEST(Switch, ByteCapAlsoDrops) {
  SwitchConfig cfg;
  cfg.queue.depthPackets = 100;
  cfg.queue.depthBytes = 2500;  // ~2 x 1000B packets + slack
  SwitchFixture f(cfg);
  f.addDest(0);
  const int in = f.sw->attachInput("up");
  for (int i = 0; i < 8; ++i)
    f.sw->inject(in, mkPacket(1, 0, 1000, static_cast<std::uint64_t>(i)));
  f.sim.run();
  EXPECT_GT(f.sw->dropsQueue(), 0u);
  EXPECT_EQ(f.sw->dropsQueue() + f.delivered[0].size(), 8u);
}

TEST(Switch, RoundRobinSharesOutputFairly) {
  SwitchConfig cfg;
  cfg.queue.depthPackets = 64;
  cfg.queue.arbitration = Arbitration::RoundRobin;
  SwitchFixture f(cfg);
  f.addDest(0);
  const int inA = f.sw->attachInput("a");
  const int inB = f.sw->attachInput("b");
  // Input A floods 16 packets first, then B adds 4. With per-input
  // round-robin, B's packets interleave instead of waiting behind all of
  // A's backlog: B's last packet must beat A's last packet out.
  for (int i = 0; i < 16; ++i)
    f.sw->inject(inA, mkPacket(1, 0, 1000, 100u + static_cast<std::uint64_t>(i)));
  for (int i = 0; i < 4; ++i)
    f.sw->inject(inB, mkPacket(2, 0, 1000, 200u + static_cast<std::uint64_t>(i)));
  f.sim.run();
  ASSERT_EQ(f.delivered[0].size(), 20u);
  std::size_t lastA = 0, lastB = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    if (f.delivered[0][i].src == 1) lastA = i;
    if (f.delivered[0][i].src == 2) lastB = i;
  }
  EXPECT_LT(lastB, lastA);
  // Per-source order is still FIFO.
  std::uint64_t prevA = 0;
  for (const auto& p : f.delivered[0])
    if (p.src == 1) {
      EXPECT_TRUE(prevA == 0 || p.seq > prevA);
      prevA = p.seq;
    }
}

TEST(Switch, FifoArbitrationKeepsArrivalOrder) {
  SwitchConfig cfg;
  cfg.queue.depthPackets = 64;
  cfg.queue.arbitration = Arbitration::Fifo;
  SwitchFixture f(cfg);
  f.addDest(0);
  const int inA = f.sw->attachInput("a");
  const int inB = f.sw->attachInput("b");
  for (int i = 0; i < 16; ++i)
    f.sw->inject(inA, mkPacket(1, 0, 1000, 100u + static_cast<std::uint64_t>(i)));
  for (int i = 0; i < 4; ++i)
    f.sw->inject(inB, mkPacket(2, 0, 1000, 200u + static_cast<std::uint64_t>(i)));
  f.sim.run();
  ASSERT_EQ(f.delivered[0].size(), 20u);
  // Strict arrival order: all of A (arrived first) before all of B.
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(f.delivered[0][i].src, 1);
  for (std::size_t i = 16; i < 20; ++i) EXPECT_EQ(f.delivered[0][i].src, 2);
}

TEST(Switch, SetRouteValidatesOutputPort) {
  ShardContext sim;
  Switch sw(sim, {}, "sw");
  EXPECT_THROW(sw.setRoute(0, 0), ConfigError);   // no outputs yet
  EXPECT_THROW(sw.setRoute(-1, 0), ConfigError);  // bad node id
}

TEST(Switch, SharedTrunkRoutesManyDestinations) {
  // Many destinations behind one output port (an inter-switch trunk).
  SwitchFixture f({});
  auto trunk = std::make_unique<Link>(f.sim, f.linkCfg, "trunk");
  std::vector<Packet> onTrunk;
  trunk->setSink([&](Packet p) { onTrunk.push_back(std::move(p)); });
  const int port = f.sw->attachOutput(*trunk);
  for (NodeId d = 0; d < 6; ++d) f.sw->setRoute(d, port);
  for (NodeId d = 0; d < 6; ++d) f.sw->inject(mkPacket(9, d, 100, 1u));
  f.sim.run();
  EXPECT_EQ(onTrunk.size(), 6u);
  EXPECT_EQ(f.sw->packetsRouted(), 6u);
  f.links.push_back(std::move(trunk));
}

}  // namespace
}  // namespace comb::net
