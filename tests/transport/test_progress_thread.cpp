// Progress-thread stack contracts: software application offload (the
// engine drives the GM protocol while the application is silent), the
// placement cost model (dedicated core free vs oversubscribed preemption),
// trace lifecycle spans, fault recovery in engine context, sharded-core
// bit-identity, and the [progress] machine-file section.
#include "transport/progress_thread.hpp"

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

const transport::ProgressThreadEndpoint& ptEndpoint(SimCluster& c, int rank) {
  return static_cast<const transport::ProgressThreadEndpoint&>(
      c.endpoint(rank));
}

// The software-offload contract: a 100 KB rendezvous — which stalls
// forever on plain GM without library calls — completes during radio
// silence, because the engine answers the CTS and kicks the DMA.
TEST(ProgressThread, RendezvousProgressesWithoutLibraryCalls) {
  for (const auto& machine :
       {progressThreadMachine(), progressOversubMachine()}) {
    SCOPED_TRACE(machine.name);
    SimCluster cluster(machine, 2);
    QuietResult r0, r1;
    cluster.launch(0, quietProbe(cluster.proc(0), 100_KB, 100_ms, r0));
    cluster.launch(1, quietProbe(cluster.proc(1), 100_KB, 100_ms, r1));
    cluster.run();
    EXPECT_TRUE(r0.recvDoneDuringSilence);
    EXPECT_TRUE(r1.recvDoneDuringSilence);
    EXPECT_TRUE(r0.sendDoneDuringSilence);
    EXPECT_TRUE(r1.sendDoneDuringSilence);
    EXPECT_TRUE(cluster.endpoint(0).applicationOffload());
    EXPECT_GT(ptEndpoint(cluster, 0).engineWakeups(), 0u);
  }
}

// Placement cost model: a dedicated engine core leaves the application
// CPU untouched (no preemption at all); an oversubscribed engine charges
// its cycles through the application CPU's interrupt path.
TEST(ProgressThread, PlacementDecidesWhoPaysForTheEngine) {
  {
    SimCluster dedicated(progressThreadMachine(), 2);
    QuietResult a, b;
    dedicated.launch(0, quietProbe(dedicated.proc(0), 300_KB, 200_ms, a));
    dedicated.launch(1, quietProbe(dedicated.proc(1), 300_KB, 200_ms, b));
    dedicated.run();
    EXPECT_DOUBLE_EQ(dedicated.cpu(0).isrTime(), 0.0);
    EXPECT_EQ(dedicated.cpu(0).interruptsRaised(), 0u);
    // The engine core did real protocol work.
    EXPECT_GT(dedicated.cpu(0, 1).userTime(), 0.0);
  }
  {
    SimCluster oversub(progressOversubMachine(), 2);
    QuietResult a, b;
    oversub.launch(0, quietProbe(oversub.proc(0), 300_KB, 200_ms, a));
    oversub.launch(1, quietProbe(oversub.proc(1), 300_KB, 200_ms, b));
    oversub.run();
    // Engine cycles preempt the application core.
    EXPECT_GT(oversub.cpu(0).isrTime(), 0.0);
  }
}

// Lifecycle trace census: every engine wakeup opens a "pt-engine" span
// on the engine's own track, and the span count matches the wakeup
// counter.
TEST(ProgressThread, EngineWakeupsLeaveTraceSpans) {
  SimCluster cluster(progressThreadMachine(), 2);
  cluster.enableTracing();
  QuietResult r0, r1;
  cluster.launch(0, quietProbe(cluster.proc(0), 100_KB, 50_ms, r0));
  cluster.launch(1, quietProbe(cluster.proc(1), 100_KB, 50_ms, r1));
  cluster.run();
  const auto log = cluster.releaseTraceLog();
  ASSERT_NE(log, nullptr);
  std::size_t engineSpans = 0;
  for (const auto* rec : log->select(sim::TraceCategory::Engine, 0))
    if (log->labelName(rec->label) == "pt-engine" &&
        rec->phase == sim::TracePhase::Begin)
      ++engineSpans;
  EXPECT_EQ(engineSpans, ptEndpoint(cluster, 0).engineWakeups());
  EXPECT_GT(engineSpans, 0u);
}

// The engine matches arrivals while the application posts receives. An
// eager arrival that finds no posted receive must be queued as
// unexpected before the engine yields, or a receive posted meanwhile
// never sees it; this 10 KB PWW point used to end with both ranks
// suspended forever.
TEST(ProgressThread, EagerArrivalRacingAReceivePostStillMatches) {
  auto params = bench::presets::pwwBase(10_KB);
  params.workInterval = 52'526;
  const auto point = bench::runPoint(progressThreadMachine(), params);
  EXPECT_GT(point.bandwidthBps, 0.0);
  EXPECT_GT(point.availability, 0.0);
}

// Fault recovery happens in engine context: retransmits flow without the
// application making a single library call beyond the posts.
TEST(ProgressThread, ExactlyOnceDeliveryUnderDrop) {
  auto machine = progressThreadMachine();
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
}

// --sim-jobs N is a pure scheduling change: sharded runs reproduce the
// serial core bit for bit, latency tails included.
TEST(ProgressThread, ShardedPollingMatchesSerialBitIdentical) {
  auto params = bench::presets::pollingBase(100_KB);
  params.targetDuration = 3e-3;
  params.maxPolls = 5'000;
  bench::RunOptions sharded;
  sharded.simJobs = 2;
  const auto a = bench::runPoint(progressThreadMachine(), params);
  const auto b = bench::runPoint(progressThreadMachine(), params,
                                 sharded);
  EXPECT_EQ(a.bandwidthBps, b.bandwidthBps);
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.messagesReceived, b.messagesReceived);
  EXPECT_EQ(a.recvTail.p999, b.recvTail.p999);
  EXPECT_EQ(a.sendTail.p99, b.sendTail.p99);
}

// ---- [progress] machine-file section -------------------------------------

MachineConfig parse(const std::string& text) {
  std::istringstream in(text);
  return parseMachineFile(in, "test.ini");
}

TEST(ProgressThreadMachineFile, StackKeySelectsPresetAndSectionBinds) {
  const auto m = parse(R"(
stack = progress_thread
[progress]
poll_period_us = 10
wakeup_us = 4
poll_cost_us = 0.5
handoff_us = 0.1
eager_threshold_kb = 32
)");
  EXPECT_EQ(m.kind, TransportKind::ProgressThread);
  EXPECT_TRUE(m.progress.dedicatedCore);
  EXPECT_EQ(m.cpusPerNode, 2);  // dedicated placement brings its own core
  EXPECT_EQ(m.nicCpu, 1);
  EXPECT_DOUBLE_EQ(m.progress.pollPeriod, 10e-6);
  EXPECT_DOUBLE_EQ(m.progress.wakeupLatency, 4e-6);
  EXPECT_DOUBLE_EQ(m.progress.pollCost, 0.5e-6);
  EXPECT_DOUBLE_EQ(m.progress.handoffPenalty, 0.1e-6);
  EXPECT_EQ(m.progress.proto.eagerThreshold, 32u * 1024u);
  // Untouched protocol keys keep GM defaults.
  EXPECT_DOUBLE_EQ(m.progress.proto.libCallCost, 0.7e-6);
}

TEST(ProgressThreadMachineFile, OversubscribedPlacementSharesTheCore) {
  const auto m = parse(R"(
stack = progress_thread
[progress]
placement = oversubscribed
)");
  EXPECT_FALSE(m.progress.dedicatedCore);
  EXPECT_EQ(m.cpusPerNode, 1);
  EXPECT_EQ(m.nicCpu, 0);
}

TEST(ProgressThreadMachineFile, ExplicitHostShapeWinsOverPlacement) {
  const auto m = parse(R"(
stack = progress_thread
[host]
cpus_per_node = 4
nic_cpu = 3
)");
  EXPECT_EQ(m.cpusPerNode, 4);
  EXPECT_EQ(m.nicCpu, 3);
}

TEST(ProgressThreadMachineFile, BadPlacementIsAConfigError) {
  EXPECT_THROW(parse("stack = progress_thread\n"
                     "[progress]\nplacement = sideways\n"),
               ConfigError);
}

TEST(ProgressThreadMachineFile, DedicatedPlacementNeedsAnEngineCore) {
  // The application owns CPU 0; a dedicated engine cannot share it.
  EXPECT_THROW(parse("stack = progress_thread\n"
                     "[host]\ncpus_per_node = 1\nnic_cpu = 0\n"),
               ConfigError);
}

TEST(ProgressThreadMachineFile, UnknownProgressKeyIsAConfigError) {
  EXPECT_THROW(parse("stack = progress_thread\n"
                     "[progress]\nspin_forever = 1\n"),
               ConfigError);
}

}  // namespace
}  // namespace comb::backend
