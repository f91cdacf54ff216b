#include "net/link.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"

namespace comb::net {
namespace {

using namespace comb::units;
using sim::ShardContext;

Packet mkPacket(Bytes wire, NodeId src = 0, NodeId dst = 1) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.wireBytes = wire;
  return p;
}

TEST(Link, ArrivalTimeIsSerializationPlusLatency) {
  ShardContext sim;
  Link link(sim, {.rate = 100e6, .latency = 2_us}, "l");
  std::vector<Time> arrivals;
  link.setSink([&](Packet) { arrivals.push_back(sim.now()); });
  // 1000 bytes at 100 MB/s = 10 us serialize + 2 us latency.
  const Time predicted = link.send(mkPacket(1000));
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_NEAR(arrivals[0], 12e-6, 1e-12);
  EXPECT_NEAR(predicted, 12e-6, 1e-12);
}

TEST(Link, BackToBackPacketsSerializeFifo) {
  ShardContext sim;
  Link link(sim, {.rate = 100e6, .latency = 0.0}, "l");
  std::vector<Time> arrivals;
  link.setSink([&](Packet) { arrivals.push_back(sim.now()); });
  link.send(mkPacket(1000));  // occupies 0..10 us
  link.send(mkPacket(1000));  // occupies 10..20 us
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 10e-6, 1e-12);
  EXPECT_NEAR(arrivals[1], 20e-6, 1e-12);
}

TEST(Link, IdleGapRestartsImmediately) {
  ShardContext sim;
  Link link(sim, {.rate = 1e6, .latency = 0.0}, "l");
  std::vector<Time> arrivals;
  link.setSink([&](Packet) { arrivals.push_back(sim.now()); });
  link.send(mkPacket(100));  // 100 us
  sim.schedule(500_us, [&] { link.send(mkPacket(100)); });
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 100e-6, 1e-12);
  EXPECT_NEAR(arrivals[1], 600e-6, 1e-12);
}

TEST(Link, StatsAccumulate) {
  ShardContext sim;
  Link link(sim, {.rate = 1e6, .latency = 1_us}, "l");
  link.setSink([](Packet) {});
  link.send(mkPacket(300));
  link.send(mkPacket(700));
  sim.run();
  EXPECT_EQ(link.bytesCarried(), 1000u);
  EXPECT_EQ(link.packetsCarried(), 2u);
  EXPECT_NEAR(link.busyTime(), 1e-3, 1e-12);
}

TEST(Link, IdleNowReflectsOccupancy) {
  ShardContext sim;
  Link link(sim, {.rate = 1e6, .latency = 0.0}, "l");
  link.setSink([](Packet) {});
  EXPECT_TRUE(link.idleNow());
  link.send(mkPacket(1000));  // busy until 1 ms
  EXPECT_FALSE(link.idleNow());
  sim.schedule(0.5_ms, [&] { EXPECT_FALSE(link.idleNow()); });
  sim.schedule(1.5_ms, [&] { EXPECT_TRUE(link.idleNow()); });
  sim.run();
}

TEST(Link, SaturatedThroughputMatchesRate) {
  ShardContext sim;
  Link link(sim, {.rate = 50e6, .latency = 1_us}, "l");
  Bytes received = 0;
  link.setSink([&](Packet p) { received += p.wireBytes; });
  // Keep the link saturated for ~10 ms.
  const int n = 100;
  for (int i = 0; i < n; ++i) link.send(mkPacket(5000));
  sim.run();
  const Time lastArrival = sim.now();
  const double rate = static_cast<double>(received) / (lastArrival - 1e-6);
  EXPECT_NEAR(rate, 50e6, 50e6 * 0.001);
  EXPECT_EQ(received, 500000u);
}

TEST(Link, ZeroByteControlPacketTakesOnlyLatency) {
  ShardContext sim;
  Link link(sim, {.rate = 1e6, .latency = 3_us}, "l");
  Time arrival = -1;
  link.setSink([&](Packet) { arrival = sim.now(); });
  link.send(mkPacket(0));
  sim.run();
  EXPECT_NEAR(arrival, 3e-6, 1e-15);
}

TEST(Link, InvalidConfigRejected) {
  ShardContext sim;
  EXPECT_THROW(Link(sim, {.rate = 0.0, .latency = 0.0}, "bad"), ConfigError);
  EXPECT_THROW(Link(sim, {.rate = 1e6, .latency = -1.0}, "bad"), ConfigError);
}

}  // namespace
}  // namespace comb::net
