// GmNic unit tests: fragment-level transmit scheduling, control-packet
// priority, assembly, SendDone timing.
#include "nic/gm_nic.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"
#include "net/fabric.hpp"

namespace comb::nic {
namespace {

using namespace comb::units;
using transport::WireKind;
using transport::WirePayload;

struct Fixture {
  sim::ShardContext sim;
  net::Fabric fabric;
  GmNic nic0;
  GmNic nic1;
  std::vector<net::Packet> rawAt1;  // raw packets osberved at node 1's tap

  Fixture()
      : fabric(sim,
               net::FabricConfig{
                   .link = {.rate = 100e6, .latency = 1_us},
                   .sw = {.routingLatency = 0.5_us, .ports = 8},
                   .mtu = 4096,
                   .perPacketHeader = 64}),
        nic0(sim, fabric, prepareNode(0)),
        nic1(sim, fabric, prepareNode(1)) {
    // Wire delivery: node 0 -> nic0, node 1 -> tap + nic1.
  }

  // Fabric nodes must exist before the NICs; route through trampolines.
  net::NodeId prepareNode(int which) {
    return fabric.addNode([this, which](net::Packet p) {
      if (which == 1) rawAt1.push_back(p);
      (which == 0 ? pending0 : pending1).push_back(std::move(p));
    });
  }

  void pumpDeliveries() {
    for (auto& p : pending0) nic0.deliver(std::move(p));
    pending0.clear();
    for (auto& p : pending1) nic1.deliver(std::move(p));
    pending1.clear();
  }

  std::vector<net::Packet> pending0, pending1;
};

mpi::Envelope env(int src, int tag) { return mpi::Envelope{0, src, tag}; }

TEST(GmNic, SingleSmallMessageDelivers) {
  Fixture f;
  f.nic0.sendMessage(1, WireKind::Eager, env(0, 5), 1000, 1000, nullptr, 7, 0,
                     false);
  f.sim.run();
  f.pumpDeliveries();
  auto ev = f.nic1.pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->type, GmEvent::Type::MsgArrived);
  EXPECT_EQ(ev->kind, WireKind::Eager);
  EXPECT_EQ(ev->msgBytes, 1000u);
  EXPECT_EQ(ev->senderHandle, 7u);
  EXPECT_EQ(ev->env.tag, 5);
  EXPECT_EQ(ev->srcNode, 0);
  EXPECT_FALSE(f.nic1.pop().has_value());
}

TEST(GmNic, LargeMessageFragmentsAndReassembles) {
  Fixture f;
  f.nic0.sendMessage(1, WireKind::Data, env(0, 1), 100 * 1024, 100 * 1024,
                     nullptr, 1, 2, false);
  f.sim.run();
  f.pumpDeliveries();
  // 100 KB / 4 KB MTU = 25 fragments on the wire...
  EXPECT_EQ(f.rawAt1.size(), 25u);
  // ...but exactly one NIC-level message event.
  auto ev = f.nic1.pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->msgBytes, 100u * 1024u);
  EXPECT_EQ(ev->recvHandle, 2u);
  EXPECT_FALSE(f.nic1.pop().has_value());
  EXPECT_EQ(f.nic1.messagesDelivered(), 1u);
}

TEST(GmNic, ControlPacketOvertakesQueuedData) {
  Fixture f;
  // Queue a 100 KB data message, then a control packet. The control
  // packet must arrive long before the data message completes.
  f.nic0.sendMessage(1, WireKind::Data, env(0, 1), 100 * 1024, 100 * 1024,
                     nullptr, 1, 0, false);
  f.nic0.sendMessage(1, WireKind::Cts, env(0, 2), 32, 0, nullptr, 0, 9,
                     false);
  Time ctrlArrival = -1, dataArrival = -1;
  // Drive the simulation; deliveries land in pending queues with times.
  while (f.sim.step()) {
    f.pumpDeliveries();
    while (auto ev = f.nic1.pop()) {
      if (ev->kind == WireKind::Cts) ctrlArrival = f.sim.now();
      if (ev->kind == WireKind::Data) dataArrival = f.sim.now();
    }
  }
  ASSERT_GT(ctrlArrival, 0.0);
  ASSERT_GT(dataArrival, 0.0);
  // Control slipped in after at most one fragment (~42 us), while the
  // data message takes > 1 ms.
  EXPECT_LT(ctrlArrival, 150e-6);
  EXPECT_GT(dataArrival, 1e-3);
}

TEST(GmNic, SendDoneReportedAtDmaCompletion) {
  Fixture f;
  f.nic0.sendMessage(1, WireKind::Data, env(0, 1), 50 * 1024, 50 * 1024,
                     nullptr, 41, 0, /*reportSendDone=*/true);
  Time sendDoneAt = -1;
  std::uint64_t handle = 0;
  while (f.sim.step()) {
    while (auto ev = f.nic0.pop()) {
      if (ev->type != GmEvent::Type::SendDone) continue;
      sendDoneAt = f.sim.now();
      handle = ev->senderHandle;
    }
  }
  // The completion names the send by the MPI handle it carried.
  EXPECT_EQ(handle, 41u);
  // 13 fragments x (4096+64) bytes at 100 MB/s ~ 0.53 ms of serialization
  // (the last fragment is short).
  ASSERT_GT(sendDoneAt, 0.0);
  EXPECT_NEAR(sendDoneAt, (12 * 4160 + (50 * 1024 - 12 * 4096) + 64) / 100e6,
              5e-6);
}

TEST(GmNic, EventHookFiresOnArrivalAndSendDone) {
  Fixture f;
  int hooks0 = 0, hooks1 = 0;
  f.nic0.setEventHook([&] { ++hooks0; });
  f.nic1.setEventHook([&] { ++hooks1; });
  f.nic0.sendMessage(1, WireKind::Eager, env(0, 1), 512, 512, nullptr, 7, 0,
                     /*reportSendDone=*/true);
  while (f.sim.step()) f.pumpDeliveries();
  EXPECT_EQ(hooks0, 1);  // SendDone
  EXPECT_EQ(hooks1, 1);  // MsgArrived
  const auto done = f.nic0.pop();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->type, GmEvent::Type::SendDone);
  EXPECT_EQ(done->senderHandle, 7u);
}

TEST(GmNic, InterleavedMessagesToSameDestination) {
  Fixture f;
  for (int i = 0; i < 5; ++i)
    f.nic0.sendMessage(1, WireKind::Eager, env(0, 10 + i), 20 * 1024,
                       20 * 1024, nullptr, static_cast<std::uint64_t>(i), 0,
                       false);
  f.sim.run();
  f.pumpDeliveries();
  // All five arrive, in submission order.
  for (int i = 0; i < 5; ++i) {
    auto ev = f.nic1.pop();
    ASSERT_TRUE(ev.has_value()) << "message " << i;
    EXPECT_EQ(ev->env.tag, 10 + i);
  }
  EXPECT_EQ(f.nic0.messagesSent(), 5u);
}

TEST(GmNic, ZeroByteControlMessage) {
  Fixture f;
  f.nic0.sendMessage(1, WireKind::Rts, env(0, 3), 0, 300 * 1024, nullptr, 42,
                     0, false);
  f.sim.run();
  f.pumpDeliveries();
  auto ev = f.nic1.pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->kind, WireKind::Rts);
  EXPECT_EQ(ev->msgBytes, 300u * 1024u);  // declared length, not wire length
  EXPECT_EQ(ev->senderHandle, 42u);
}

}  // namespace
}  // namespace comb::nic
