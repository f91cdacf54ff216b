// RDMA stack contracts: hardware matching against pre-posted receives,
// autonomous rendezvous with zero host involvement and zero interrupts,
// the host fallback on unexpected messages, NIC-resident retransmission,
// sharded-core bit-identity, and the [rdma] machine-file section.
#include "transport/rdma.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "backend/machine.hpp"
#include "backend/machine_file.hpp"
#include "backend/sim_cluster.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "mpi/mpi.hpp"
#include "net/fault.hpp"
#include "sim/tracelog.hpp"

namespace comb::backend {
namespace {

using namespace comb::units;
using mpi::Request;
using sim::Task;

struct QuietResult {
  bool recvDoneDuringSilence = false;
  bool sendDoneDuringSilence = false;
};

Task<void> quietProbe(SimProc& p, Bytes bytes, Time quiet, QuietResult& out) {
  const int peer = 1 - p.rank();
  Request rx = co_await p.mpi().irecv(p.mpi().world(), peer, 1, bytes);
  Request tx = co_await p.mpi().isend(p.mpi().world(), peer, 1, bytes);
  co_await p.simulator().delay(quiet);
  out.recvDoneDuringSilence = p.mpi().peekDone(rx);
  out.sendDoneDuringSilence = p.mpi().peekDone(tx);
  co_await p.mpi().wait(rx);
  co_await p.mpi().wait(tx);
}

Task<void> sendMany(SimProc& p, int count, Bytes size) {
  for (int i = 0; i < count; ++i)
    co_await p.mpi().send(p.mpi().world(), 1, i, size);
}

Task<void> recvMany(SimProc& p, int count, Bytes size) {
  for (int i = 0; i < count; ++i)
    co_await p.mpi().recv(p.mpi().world(), 0, i, size);
}

const transport::RdmaEndpoint& rdmaEndpoint(SimCluster& c, int rank) {
  return static_cast<const transport::RdmaEndpoint&>(c.endpoint(rank));
}

// The autonomy contract: a 100 KB rendezvous completes during radio
// silence — matching, CTS and DMA all run in NIC hardware — and unlike
// Portals the host never takes a single interrupt for it.
TEST(Rdma, RendezvousProgressesWithoutHostOrInterrupts) {
  SimCluster cluster(rdmaMachine(), 2);
  QuietResult r0, r1;
  cluster.launch(0, quietProbe(cluster.proc(0), 100_KB, 100_ms, r0));
  cluster.launch(1, quietProbe(cluster.proc(1), 100_KB, 100_ms, r1));
  cluster.run();
  EXPECT_TRUE(r0.recvDoneDuringSilence);
  EXPECT_TRUE(r1.recvDoneDuringSilence);
  EXPECT_TRUE(r0.sendDoneDuringSilence);
  EXPECT_TRUE(r1.sendDoneDuringSilence);
  EXPECT_TRUE(cluster.endpoint(0).applicationOffload());
  EXPECT_DOUBLE_EQ(cluster.cpu(0).isrTime(), 0.0);
  EXPECT_EQ(cluster.cpu(0).interruptsRaised(), 0u);
  EXPECT_EQ(cluster.cpu(1).interruptsRaised(), 0u);
}

// Pre-posted receives are matched in hardware (no fallback); a send
// racing ahead of the receive post lands in host bounce buffers instead
// and is counted as an unexpected fallback.
TEST(Rdma, HardwareMatchVsUnexpectedFallback) {
  {
    SimCluster cluster(rdmaMachine(), 2);
    QuietResult r0, r1;
    cluster.launch(0, quietProbe(cluster.proc(0), 10_KB, 50_ms, r0));
    cluster.launch(1, quietProbe(cluster.proc(1), 10_KB, 50_ms, r1));
    cluster.run();
    EXPECT_EQ(rdmaEndpoint(cluster, 0).unexpectedFallbacks(), 0u);
    EXPECT_EQ(rdmaEndpoint(cluster, 1).unexpectedFallbacks(), 0u);
  }
  {
    SimCluster cluster(rdmaMachine(), 2);
    auto eagerSender = [](SimProc& p) -> Task<void> {
      co_await p.mpi().send(p.mpi().world(), 1, 1, 10_KB);
    };
    auto lateReceiver = [](SimProc& p) -> Task<void> {
      // Let the eager message arrive with no matching receive posted.
      co_await p.simulator().delay(10_ms);
      co_await p.mpi().recv(p.mpi().world(), 0, 1, 10_KB);
    };
    cluster.launch(0, eagerSender(cluster.proc(0)));
    cluster.launch(1, lateReceiver(cluster.proc(1)));
    cluster.run();
    EXPECT_EQ(rdmaEndpoint(cluster, 1).unexpectedFallbacks(), 1u);
  }
}

// Lifecycle trace census: posts, hardware matches and the rendezvous
// DMA kick all leave protocol records; the pre-posted path emits no
// unexpected-fallback record.
TEST(Rdma, LifecycleLeavesTraceRecords) {
  SimCluster cluster(rdmaMachine(), 2);
  cluster.enableTracing();
  QuietResult r0, r1;
  cluster.launch(0, quietProbe(cluster.proc(0), 100_KB, 50_ms, r0));
  cluster.launch(1, quietProbe(cluster.proc(1), 100_KB, 50_ms, r1));
  cluster.run();
  const auto log = cluster.releaseTraceLog();
  ASSERT_NE(log, nullptr);
  std::size_t rndvPosts = 0, hwMatches = 0, dmaKicks = 0, unexpected = 0;
  for (const auto* rec : log->select(sim::TraceCategory::Protocol)) {
    const auto label = log->labelName(rec->label);
    if (label == "rdma-rndv-post") ++rndvPosts;
    if (label == "hw-match") ++hwMatches;
    if (label == "cts->dma") ++dmaKicks;
    if (label == "rdma-unexpected") ++unexpected;
  }
  EXPECT_EQ(rndvPosts, 2u);  // one 100 KB isend per rank
  EXPECT_EQ(hwMatches, 2u);  // each RTS matched in hardware
  EXPECT_EQ(dmaKicks, 2u);   // each CTS kicked an autonomous DMA
  EXPECT_EQ(unexpected, 0u);
}

// NIC-resident reliability: drops are replayed from retained NIC buffers
// with exactly-once delivery and still zero host interrupts.
TEST(Rdma, ExactlyOnceDeliveryUnderDropWithoutInterrupts) {
  auto machine = rdmaMachine();
  machine.fabric.link.fault = net::parseFaultSpec("drop=0.05,burst=2,seed=3");
  SimCluster cluster(machine, 2);
  const int count = 20;
  const Bytes size = 40_KB;
  cluster.launch(0, sendMany(cluster.proc(0), count, size));
  cluster.launch(1, recvMany(cluster.proc(1), count, size));
  cluster.run();
  EXPECT_EQ(cluster.mpi(1).bytesReceived(), count * size);
  const auto fc = cluster.faultCounters();
  EXPECT_GT(fc.dropsInjected, 0u);
  EXPECT_GT(fc.retransmits, 0u);
  EXPECT_GT(fc.timeoutWakeups, 0u);
  EXPECT_EQ(cluster.cpu(0).interruptsRaised(), 0u);
  EXPECT_EQ(cluster.cpu(1).interruptsRaised(), 0u);
}

// --sim-jobs N is a pure scheduling change: sharded runs reproduce the
// serial core bit for bit, latency tails included.
TEST(Rdma, ShardedPollingMatchesSerialBitIdentical) {
  auto params = bench::presets::pollingBase(100_KB);
  params.targetDuration = 3e-3;
  params.maxPolls = 5'000;
  bench::RunOptions sharded;
  sharded.simJobs = 2;
  const auto a = bench::runPoint(rdmaMachine(), params);
  const auto b = bench::runPoint(rdmaMachine(), params, sharded);
  EXPECT_EQ(a.bandwidthBps, b.bandwidthBps);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.messagesReceived, b.messagesReceived);
  EXPECT_EQ(a.recvTail.p999, b.recvTail.p999);
  EXPECT_EQ(a.sendTail.p99, b.sendTail.p99);
}

// ---- [rdma] machine-file section ------------------------------------------

MachineConfig parse(const std::string& text) {
  std::istringstream in(text);
  return parseMachineFile(in, "test.ini");
}

TEST(RdmaMachineFile, StackKeySelectsPresetAndSectionBinds) {
  const auto m = parse(R"(
stack = rdma
[rdma]
eager_threshold_kb = 64
post_overhead_us = 2
lib_call_cost_us = 0.25
match_delay_us = 0.8
per_frag_tx_us = 0.3
unexpected_copy_MBps = 800
)");
  EXPECT_EQ(m.kind, TransportKind::Rdma);
  EXPECT_EQ(m.rdma.eagerThreshold, 64u * 1024u);
  EXPECT_DOUBLE_EQ(m.rdma.postOverhead, 2e-6);
  EXPECT_DOUBLE_EQ(m.rdma.libCallCost, 0.25e-6);
  EXPECT_DOUBLE_EQ(m.rdma.matchDelay, 0.8e-6);
  EXPECT_DOUBLE_EQ(m.rdma.nic.perFragTx, 0.3e-6);
  EXPECT_DOUBLE_EQ(m.rdma.unexpectedCopyRate, 800e6);
}

TEST(RdmaMachineFile, TransportKeyAcceptsRdmaToo) {
  const auto m = parse("transport = rdma\n");
  EXPECT_EQ(m.kind, TransportKind::Rdma);
  EXPECT_EQ(m.name, "rdma");
}

TEST(RdmaMachineFile, UnknownRdmaKeyIsAConfigError) {
  EXPECT_THROW(parse("stack = rdma\n[rdma]\nquantum_tunnel = 1\n"),
               ConfigError);
}

TEST(RdmaMachineFile, UnknownStackIsAConfigError) {
  EXPECT_THROW(parse("stack = carrier_pigeon\n"), ConfigError);
}

}  // namespace
}  // namespace comb::backend
