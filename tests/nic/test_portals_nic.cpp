// PortalsNic unit tests: kernel tx pump CPU charging, per-fragment rx
// interrupts, handler context.
#include "nic/portals_nic.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"
#include "host/cpu.hpp"
#include "net/fabric.hpp"

namespace comb::nic {
namespace {

using namespace comb::units;
using transport::WireFields;
using transport::WireKind;
using transport::WirePayload;

struct Fixture {
  sim::ShardContext sim;
  net::Fabric fabric;
  host::Cpu cpu0{sim, "cpu0"};
  host::Cpu cpu1{sim, "cpu1"};
  std::unique_ptr<PortalsNic> nic0, nic1;

  Fixture()
      : fabric(sim, net::FabricConfig{
                        .link = {.rate = 100e6, .latency = 1_us},
                        .sw = {.routingLatency = 0.5_us, .ports = 8},
                        .mtu = 4096,
                        .perPacketHeader = 64}) {
    const auto id0 = fabric.addNode(
        [this](net::Packet p) { nic0->deliver(std::move(p)); });
    const auto id1 = fabric.addNode(
        [this](net::Packet p) { nic1->deliver(std::move(p)); });
    PortalsNicConfig cfg;  // defaults
    nic0 = std::make_unique<PortalsNic>(sim, fabric, cpu0, id0, cfg);
    nic1 = std::make_unique<PortalsNic>(sim, fabric, cpu1, id1, cfg);
  }
};

mpi::Envelope env(int src, int tag) { return mpi::Envelope{0, src, tag}; }

TEST(PortalsNic, TxChargesSenderCpu) {
  Fixture f;
  f.nic0->sendMessage(1, WireKind::Eager, env(0, 1), 100 * 1024, 100 * 1024,
                      nullptr, 1, 0);
  f.sim.run();
  // 25 fragments of kernel tx work on the sender's CPU.
  const double expectTx =
      25 * (f.nic0->config().perFragTx + 4096.0 / f.nic0->config().kernelCopyRate);
  EXPECT_NEAR(f.cpu0.isrTime(), expectTx, expectTx * 0.05);
  EXPECT_GT(f.cpu0.interruptsRaised(), 24u);
}

TEST(PortalsNic, RxRaisesInterruptPerFragment) {
  Fixture f;
  int fragsSeen = 0;
  f.nic1->setRxHandler(
      [&](const WirePayload&, net::NodeId src) {
        ++fragsSeen;
        EXPECT_EQ(src, 0);
      });
  f.nic0->sendMessage(1, WireKind::Eager, env(0, 1), 100 * 1024, 100 * 1024,
                      nullptr, 1, 0);
  f.sim.run();
  EXPECT_EQ(fragsSeen, 25);
  EXPECT_EQ(f.nic1->fragmentsReceived(), 25u);
  // Receiver CPU paid interrupt + copy per fragment.
  const double expectRx =
      25 * (f.nic1->config().perFragRx +
            4096.0 / f.nic1->config().kernelCopyRate);
  EXPECT_NEAR(f.cpu1.isrTime(), expectRx, expectRx * 0.05);
}

TEST(PortalsNic, TxDoneFiresOnceAtLastFragment) {
  Fixture f;
  std::vector<std::uint64_t> done;
  std::vector<std::uint64_t> handles;
  f.nic0->setTxDoneHandler([&](const WireFields& msg) {
    done.push_back(msg.msgId);
    handles.push_back(msg.senderHandle);
  });
  const auto idA = f.nic0->sendMessage(1, WireKind::Eager, env(0, 1),
                                       50 * 1024, 50 * 1024, nullptr, 1, 0);
  const auto idB = f.nic0->sendMessage(1, WireKind::Eager, env(0, 2), 512,
                                       512, nullptr, 2, 0);
  f.sim.run();
  ASSERT_EQ(done.size(), 2u);
  // FIFO kernel pump: A completes before B.
  EXPECT_EQ(done[0], idA);
  EXPECT_EQ(done[1], idB);
  // Each completion carries the handle its message was sent with.
  EXPECT_EQ(handles, (std::vector<std::uint64_t>{1, 2}));
}

TEST(PortalsNic, InterruptsPreemptUserCompute) {
  Fixture f;
  Time done = -1;
  auto worker = [&]() -> sim::Task<void> {
    co_await f.cpu1.compute(10e-3);
    done = f.sim.now();
  };
  f.sim.spawn(worker(), "worker");
  f.nic0->sendMessage(1, WireKind::Eager, env(0, 1), 100 * 1024, 100 * 1024,
                      nullptr, 1, 0);
  f.sim.run();
  // The 10 ms of user compute is stretched by the rx interrupt service.
  EXPECT_GT(done, 10e-3 + 0.5 * f.cpu1.isrTime());
  EXPECT_GT(f.cpu1.isrTime(), 500e-6);
}

TEST(PortalsNic, FragmentPayloadCarriesMetadata) {
  Fixture f;
  std::uint32_t count = 0;
  Bytes declared = 0;
  f.nic1->setRxHandler([&](const WirePayload& frag, net::NodeId) {
    if (frag.fragIndex == 0) declared = frag.msgBytes;
    EXPECT_EQ(frag.fragCount, 3u);
    ++count;
  });
  f.nic0->sendMessage(1, WireKind::Eager, env(0, 9), 10 * 1024, 10 * 1024,
                      nullptr, 5, 0);
  f.sim.run();
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(declared, 10u * 1024u);
}

}  // namespace
}  // namespace comb::nic
