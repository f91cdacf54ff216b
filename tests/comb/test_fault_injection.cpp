// End-to-end fault injection: the transports' retransmission protocols
// restore exactly-once delivery under packet loss, results stay
// bit-deterministic (same seed, any --jobs), the retry budget is
// enforced, and a lossless fabric pays nothing for any of it.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "net/fault.hpp"
#include "transport/reliability.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/lsan_interface.h>
#endif

namespace comb::bench {
namespace {

using namespace comb::units;

backend::MachineConfig faulty(backend::MachineConfig m,
                              const std::string& spec) {
  m.fabric.link.fault = net::parseFaultSpec(spec);
  return m;
}

std::vector<backend::MachineConfig> allStacks() {
  return {backend::gmMachine(), backend::portalsMachine(),
          backend::progressThreadMachine(), backend::rdmaMachine()};
}

sim::Task<void> sendMany(backend::SimProc& p, int count, Bytes size) {
  for (int i = 0; i < count; ++i)
    co_await p.mpi().send(p.mpi().world(), 1, 1, size);
}

sim::Task<void> recvMany(backend::SimProc& p, int count, Bytes size) {
  for (int i = 0; i < count; ++i)
    co_await p.mpi().recv(p.mpi().world(), 0, 1, size);
}

TEST(FaultInjection, ExactlyOnceDeliveryUnderDrop) {
  for (const auto& machine : allStacks()) {
    SCOPED_TRACE(machine.name);
    backend::SimCluster cluster(faulty(machine, "drop=0.05,burst=2,seed=3"),
                                2);
    const int count = 20;
    const Bytes size = 40_KB;
    cluster.launch(0, sendMany(cluster.proc(0), count, size));
    cluster.launch(1, recvMany(cluster.proc(1), count, size));
    cluster.run();
    // Every byte arrived exactly once: recv completions account for the
    // full payload, despite injected drops forcing retransmissions.
    EXPECT_EQ(cluster.mpi(1).bytesReceived(), count * size);
    EXPECT_EQ(cluster.mpi(0).bytesSent(), count * size);
    const auto fc = cluster.faultCounters();
    EXPECT_GT(fc.dropsInjected, 0u);
    EXPECT_GT(fc.retransmits, 0u);
    EXPECT_GT(fc.timeoutWakeups, 0u);
  }
}

TEST(FaultInjection, CorruptionIsRecoveredToo) {
  for (const auto& machine : allStacks()) {
    SCOPED_TRACE(machine.name);
    backend::SimCluster cluster(faulty(machine, "corrupt=0.05,seed=9"), 2);
    const int count = 10;
    const Bytes size = 40_KB;
    cluster.launch(0, sendMany(cluster.proc(0), count, size));
    cluster.launch(1, recvMany(cluster.proc(1), count, size));
    cluster.run();
    EXPECT_EQ(cluster.mpi(1).bytesReceived(), count * size);
    EXPECT_GT(cluster.faultCounters().corruptsInjected, 0u);
  }
}

PollingParams quickBase() {
  auto p = presets::pollingBase(100_KB);
  p.targetDuration = 10e-3;
  p.maxPolls = 10'000;
  return p;
}

void expectSamePoint(const PollingPoint& a, const PollingPoint& b) {
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.bandwidthBps, b.bandwidthBps);
  EXPECT_EQ(a.liveTime, b.liveTime);
  EXPECT_EQ(a.messagesReceived, b.messagesReceived);
  EXPECT_EQ(a.fault.dropsInjected, b.fault.dropsInjected);
  EXPECT_EQ(a.fault.retransmits, b.fault.retransmits);
  EXPECT_EQ(a.fault.timeoutWakeups, b.fault.timeoutWakeups);
  EXPECT_EQ(a.fault.duplicatesFiltered, b.fault.duplicatesFiltered);
}

TEST(FaultInjection, SameSeedIsBitIdenticalDifferentSeedIsNot) {
  for (const auto& machine : allStacks()) {
    SCOPED_TRACE(machine.name);
    RunOptions opts;
    opts.fault = net::parseFaultSpec("drop=0.03,seed=5");
    const auto a = runPoint(machine, quickBase(), opts);
    const auto b = runPoint(machine, quickBase(), opts);
    expectSamePoint(a, b);
    EXPECT_GT(a.fault.dropsInjected, 0u);

    RunOptions other;
    other.fault = net::parseFaultSpec("drop=0.03,seed=6");
    const auto c = runPoint(machine, quickBase(), other);
    EXPECT_TRUE(a.fault.dropsInjected != c.fault.dropsInjected ||
                a.liveTime != c.liveTime)
        << "seed change did not alter the fault stream";
  }
}

TEST(FaultInjection, ParallelSweepBitIdenticalUnderLoss) {
  const auto spec =
      sweepOver(quickBase(), std::vector<std::uint64_t>{10'000, 30'000,
                                                        100'000});
  for (const auto& machine : allStacks()) {
    SCOPED_TRACE(machine.name);
    RunOptions serial;
    serial.jobs = 1;
    serial.fault = net::parseFaultSpec("drop=0.02,burst=2,seed=7");
    RunOptions parallel = serial;
    parallel.jobs = 4;
    const auto a = runSweep(machine, spec, serial);
    const auto b = runSweep(machine, spec, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      SCOPED_TRACE(i);
      expectSamePoint(a[i], b[i]);
    }
  }
}

TEST(FaultInjection, LosslessFabricIsUntouchedByTheMachinery) {
  for (const auto& machine : allStacks()) {
    SCOPED_TRACE(machine.name);
    const auto plain = runPoint(machine, quickBase());
    // An inactive FaultSpec — even with a different seed — must leave the
    // timeline byte-identical: no acks, no timers, no counters.
    auto inert = machine;
    inert.fabric.link.fault.seed = 999;
    const auto guarded = runPoint(inert, quickBase());
    expectSamePoint(plain, guarded);
    EXPECT_FALSE(plain.fault.any());
    EXPECT_FALSE(guarded.fault.any());
  }
}

TEST(FaultInjection, RetryBudgetExhaustionThrows) {
  // The error names the NIC stack whose budget ran out; progress_thread
  // runs the GM library protocol over the GM NIC.
  const std::map<std::string, std::string> stackName = {
      {"gm", "GM: "},
      {"portals", "Portals: "},
      {"progress_thread", "GM: "},
      {"rdma", "RDMA: "}};
  for (auto machine : allStacks()) {
    SCOPED_TRACE(machine.name);
    machine.fabric.link.fault = net::parseFaultSpec("drop=1,seed=1");
    machine.gm.rel.maxRetries = 2;
    machine.portals.rel.maxRetries = 2;
    machine.progress.proto.rel.maxRetries = 2;
    machine.rdma.rel.maxRetries = 2;
    backend::SimCluster cluster(machine, 2);
#if defined(__SANITIZE_ADDRESS__)
    // The aborted run leaves both ranks suspended, and ~ShardContext
    // leaks their coroutine frames by design; LeakSanitizer ignores what
    // this run allocates and still checks every other test.
    __lsan::ScopedDisabler abortedRunFrames;
#endif
    cluster.launch(0, sendMany(cluster.proc(0), 1, 10_KB));
    cluster.launch(1, recvMany(cluster.proc(1), 1, 10_KB));
    try {
      cluster.run();
      ADD_FAILURE() << "run finished despite an exhausted retry budget";
    } catch (const transport::RetryBudgetExhausted& e) {
      const std::string what = e.what();
      EXPECT_EQ(what.rfind(stackName.at(machine.name), 0), 0u) << what;
      EXPECT_NE(what.find("retransmit budget exhausted"), std::string::npos)
          << what;
      EXPECT_NE(what.find("after 2 rounds"), std::string::npos) << what;
      // The cluster stamps the run's counters up to the collapse, so a
      // sweep can keep the run (bench/ext_fault_sweep.cpp).
      EXPECT_GT(e.fault.dropsInjected, 0u);
      EXPECT_GT(e.fault.retransmits, 0u);
      EXPECT_GE(e.fault.timeoutWakeups, 2u);
    }
  }
}

}  // namespace
}  // namespace comb::bench
