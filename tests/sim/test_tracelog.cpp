// TraceLog: ring/drop mechanics, label interning, span pairing (unmatched
// end is an error), filtering, zero steady-state allocation, and
// end-to-end instrumentation through a SimCluster exchange on both
// machine models.
#include "sim/tracelog.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "mpi/mpi.hpp"

// Global allocation counter for the zero-steady-state-allocation test.
// Replacing operator new in this binary counts every heap allocation made
// anywhere in the process.
namespace {
std::atomic<std::size_t> g_allocCount{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace comb::sim {
namespace {

using namespace comb::units;

TEST(TraceLog, EmitAndQuery) {
  TraceLog log(16);
  log.emit(1e-3, TraceCategory::Packet, 0, "->n1", 4160);
  log.emit(2e-3, TraceCategory::Packet, 1, "->n0", 96);
  log.emit(3e-3, TraceCategory::Interrupt, 1, "cpu1", 20e-6);
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.count(TraceCategory::Packet), 2u);
  EXPECT_EQ(log.count(TraceCategory::Packet, 0), 1u);
  EXPECT_EQ(log.count(TraceCategory::Interrupt), 1u);
  EXPECT_EQ(log.count(TraceCategory::MpiCall), 0u);
  const auto packets = log.select(TraceCategory::Packet);
  ASSERT_EQ(packets.size(), 2u);
  EXPECT_DOUBLE_EQ(packets[0]->a, 4160.0);
  EXPECT_EQ(log.labelName(packets[1]->label), "->n0");
}

TEST(TraceLog, CategoryNamesAreDistinctAndStable) {
  EXPECT_STREQ(traceCategoryName(TraceCategory::Process), "process");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Compute), "compute");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Interrupt), "interrupt");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Packet), "packet");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Wire), "wire");
  EXPECT_STREQ(traceCategoryName(TraceCategory::NicEvent), "nic-event");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Protocol), "protocol");
  EXPECT_STREQ(traceCategoryName(TraceCategory::MpiCall), "mpi-call");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Phase), "phase");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Fault), "fault");
  EXPECT_STREQ(traceCategoryName(TraceCategory::Engine), "engine");
}

TEST(TraceLog, LabelsInternToStableIds) {
  TraceLog log(8);
  const auto a = log.intern("alpha");
  const auto b = log.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(log.intern("alpha"), a);  // idempotent
  EXPECT_EQ(log.labelCount(), 2u);
  EXPECT_EQ(log.labelName(a), "alpha");
  EXPECT_EQ(log.labelName(b), "beta");
  log.emit(0, TraceCategory::Packet, 0, "alpha");
  EXPECT_EQ(log.record(0).label, a);
  EXPECT_THROW(log.labelName(99), ConfigError);
}

TEST(TraceLog, RingDropsOldest) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i)
    log.emit(i * 1e-3, TraceCategory::Compute, -1, "cpu", i);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_DOUBLE_EQ(log.record(0).a, 6.0);  // oldest retained
  EXPECT_DOUBLE_EQ(log.record(3).a, 9.0);  // newest
}

TEST(TraceLog, SpanPairing) {
  TraceLog log(16);
  log.beginSpan(1e-3, TraceCategory::MpiCall, 0, "isend");
  EXPECT_EQ(log.openSpans(), 1u);
  log.beginSpan(2e-3, TraceCategory::MpiCall, 0, "inner");  // nested
  log.endSpan(3e-3, TraceCategory::MpiCall, 0, "inner");
  log.endSpan(4e-3, TraceCategory::MpiCall, 0, "isend");
  EXPECT_EQ(log.openSpans(), 0u);
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.countSpans(TraceCategory::MpiCall), 2u);
  EXPECT_EQ(log.record(0).phase, TracePhase::Begin);
  EXPECT_EQ(log.record(3).phase, TracePhase::End);
}

TEST(TraceLog, UnmatchedEndIsAnError) {
  TraceLog log(16);
  // End with no open span on the track.
  EXPECT_THROW(log.endSpan(1e-3, TraceCategory::MpiCall, 0, "isend"), Error);
  // End whose label does not match the innermost open begin.
  log.beginSpan(1e-3, TraceCategory::MpiCall, 0, "isend");
  EXPECT_THROW(log.endSpan(2e-3, TraceCategory::MpiCall, 0, "irecv"), Error);
  // Same label on a different track (other node) is also unmatched.
  EXPECT_THROW(log.endSpan(2e-3, TraceCategory::MpiCall, 1, "isend"), Error);
  // Same label in a different category likewise.
  EXPECT_THROW(log.endSpan(2e-3, TraceCategory::Phase, 0, "isend"), Error);
  log.endSpan(3e-3, TraceCategory::MpiCall, 0, "isend");  // still matches
  EXPECT_EQ(log.openSpans(), 0u);
}

TEST(TraceLog, CompleteRecordsCarryDuration) {
  TraceLog log(8);
  log.complete(2e-3, 5e-4, TraceCategory::Wire, 1, "up0", 4160, 7);
  ASSERT_EQ(log.size(), 1u);
  const TraceRecord& r = log.record(0);
  EXPECT_EQ(r.phase, TracePhase::Complete);
  EXPECT_DOUBLE_EQ(r.t, 2e-3);
  EXPECT_DOUBLE_EQ(r.dur, 5e-4);
  EXPECT_DOUBLE_EQ(r.b, 7.0);
  EXPECT_EQ(log.countSpans(TraceCategory::Wire), 1u);
}

TEST(TraceLog, SelectByLabelFilters) {
  TraceLog log(16);
  log.emit(1e-3, TraceCategory::Phase, 0, "post");
  log.emit(2e-3, TraceCategory::Phase, 0, "work");
  log.emit(3e-3, TraceCategory::Phase, 1, "post");
  log.emit(4e-3, TraceCategory::Phase, 0, "post");
  EXPECT_EQ(log.select(TraceCategory::Phase, "post").size(), 3u);
  EXPECT_EQ(log.select(TraceCategory::Phase, "post", 0).size(), 2u);
  EXPECT_EQ(log.select(TraceCategory::Phase, "work").size(), 1u);
  EXPECT_TRUE(log.select(TraceCategory::Phase, "never-emitted").empty());
  EXPECT_TRUE(log.select(TraceCategory::MpiCall, "post").empty());
}

TEST(TraceLog, ClearResetsRecordsButKeepsLabels) {
  TraceLog log(4);
  log.emit(0, TraceCategory::Process, -1, "p:start");
  const auto id = log.intern("p:start");
  log.beginSpan(0, TraceCategory::Phase, 0, "work");
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.openSpans(), 0u);
  EXPECT_EQ(log.summary(), "no trace records");
  // Interned ids held by emitters stay valid across clear().
  EXPECT_EQ(log.intern("p:start"), id);
  EXPECT_EQ(log.labelName(id), "p:start");
}

TEST(TraceLog, DumpFormats) {
  TraceLog log(8);
  log.emit(1.5e-3, TraceCategory::Protocol, 2, "rts", 100.0);
  log.complete(2e-3, 1e-4, TraceCategory::Wire, 2, "up0", 4160);
  std::ostringstream os;
  log.dump(os);
  EXPECT_NE(os.str().find("protocol"), std::string::npos);
  EXPECT_NE(os.str().find("n2"), std::string::npos);
  EXPECT_NE(os.str().find("rts"), std::string::npos);
  EXPECT_NE(os.str().find("dur="), std::string::npos);
}

TEST(TraceLog, SummaryCounts) {
  TraceLog log(8);
  log.emit(0, TraceCategory::Packet, 0, "x");
  log.emit(0, TraceCategory::Packet, 0, "y");
  log.emit(0, TraceCategory::MpiCall, 0, "isend");
  const auto s = log.summary();
  EXPECT_NE(s.find("packet=2"), std::string::npos);
  EXPECT_NE(s.find("mpi-call=1"), std::string::npos);
}

TEST(TraceLog, ZeroCapacityRejected) {
  EXPECT_THROW(TraceLog(0), ConfigError);
}

TEST(TraceLog, SteadyStateEmissionDoesNotAllocate) {
  TraceLog log(256);
  // Warm-up: intern every label, give each span track its stack slot, and
  // wrap the ring once so the one-time drop warning has already fired.
  log.beginSpan(0, TraceCategory::MpiCall, 0, "isend");
  log.endSpan(0, TraceCategory::MpiCall, 0, "isend");
  log.complete(0, 1e-6, TraceCategory::Wire, 0, "up0", 1);
  for (int i = 0; i < 300; ++i)
    log.emit(i * 1e-6, TraceCategory::Packet, 0, "->n1", i);
  ASSERT_GT(log.dropped(), 0u);

  const std::size_t before = g_allocCount.load(std::memory_order_relaxed);
  for (int i = 0; i < 2000; ++i) {
    log.emit(i * 1e-6, TraceCategory::Packet, 0, "->n1", i);
    log.beginSpan(i * 1e-6, TraceCategory::MpiCall, 0, "isend");
    log.endSpan(i * 1e-6 + 1e-9, TraceCategory::MpiCall, 0, "isend");
    log.complete(i * 1e-6, 1e-9, TraceCategory::Wire, 0, "up0", i);
  }
  const std::size_t after = g_allocCount.load(std::memory_order_relaxed);
  // 8000 records through a wrapping ring: not a single heap allocation.
  EXPECT_EQ(after, before);
}

// --- end-to-end instrumentation ---------------------------------------------

TEST(TraceIntegration, GmExchangeProducesExpectedRecords) {
  backend::SimCluster cluster(backend::gmMachine(), 2);
  auto& log = cluster.enableTracing();
  auto sender = [](backend::SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 1, 100_KB);
  };
  auto receiver = [](backend::SimProc& p) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 1, 100_KB);
  };
  cluster.launch(0, sender(cluster.proc(0)), "sender");
  cluster.launch(1, receiver(cluster.proc(1)), "receiver");
  cluster.run();

  // Every span closed by the time the simulation drains.
  EXPECT_EQ(log.openSpans(), 0u);
  // Process start/finish for both ranks.
  EXPECT_EQ(log.count(TraceCategory::Process), 4u);
  // One rendezvous: RTS + CTS + 25 data fragments on the wire...
  EXPECT_EQ(log.count(TraceCategory::Packet), 27u);
  // ...each crossing two links (up to the switch, down to the peer) and
  // DMA'd once at the source NIC.
  EXPECT_EQ(log.countSpans(TraceCategory::Wire), 54u);
  EXPECT_EQ(log.countSpans(TraceCategory::NicEvent), 27u);
  // MPI calls are spans now: isend+wait on rank 0, irecv+wait on rank 1.
  EXPECT_EQ(log.countSpans(TraceCategory::MpiCall, 0), 2u);
  EXPECT_EQ(log.countSpans(TraceCategory::MpiCall, 1), 2u);
  EXPECT_EQ(log.select(TraceCategory::MpiCall, "isend", 0).size(), 2u);  // B+E
  // Protocol markers: the rendezvous post and the CTS->DMA transition,
  // plus a progress span per library call.
  EXPECT_EQ(log.select(TraceCategory::Protocol, "rndv-post").size(), 1u);
  EXPECT_EQ(log.select(TraceCategory::Protocol, "cts->dma").size(), 1u);
  EXPECT_GE(log.countSpans(TraceCategory::Protocol), 2u);
  // MPI-call CPU costs surface as Compute spans.
  EXPECT_GT(log.countSpans(TraceCategory::Compute), 0u);
  // GM never interrupts.
  EXPECT_EQ(log.count(TraceCategory::Interrupt), 0u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(TraceIntegration, PortalsExchangeRaisesInterrupts) {
  backend::SimCluster cluster(backend::portalsMachine(), 2);
  auto& log = cluster.enableTracing();
  auto sender = [](backend::SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 1, 100_KB);
  };
  auto receiver = [](backend::SimProc& p) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 1, 100_KB);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1)));
  cluster.run();
  EXPECT_EQ(log.openSpans(), 0u);
  // 25 tx-pump interrupts on the sender + 25 rx interrupts on the
  // receiver, now Complete spans carrying the service window.
  EXPECT_EQ(log.count(TraceCategory::Interrupt), 50u);
  EXPECT_EQ(log.count(TraceCategory::Interrupt, 0), 25u);
  EXPECT_EQ(log.count(TraceCategory::Interrupt, 1), 25u);
  for (const TraceRecord* r : log.select(TraceCategory::Interrupt)) {
    EXPECT_EQ(r->phase, TracePhase::Complete);
    EXPECT_GT(r->dur, 0.0);
  }
  EXPECT_EQ(log.count(TraceCategory::Packet), 25u);
  EXPECT_EQ(log.select(TraceCategory::NicEvent, "tx-frag", 0).size(), 25u);
  EXPECT_EQ(log.select(TraceCategory::NicEvent, "rx-frag", 1).size(), 25u);
  // Kernel-level protocol markers: the send post and the kernel match.
  EXPECT_EQ(log.select(TraceCategory::Protocol, "kernel-send-post").size(),
            1u);
  EXPECT_EQ(log.select(TraceCategory::Protocol, "kernel-match").size(), 1u);
}

TEST(TraceIntegration, DisabledTracingRecordsNothing) {
  backend::SimCluster cluster(backend::gmMachine(), 2);
  auto sender = [](backend::SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 1, 10_KB);
  };
  auto receiver = [](backend::SimProc& p) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 1, 10_KB);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1)));
  cluster.run();
  EXPECT_EQ(cluster.traceLog(), nullptr);
}

TEST(TraceIntegration, MetricsRegistryCountsTheExchange) {
  backend::SimCluster cluster(backend::portalsMachine(), 2);
  auto sender = [](backend::SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 1, 100_KB);
  };
  auto receiver = [](backend::SimProc& p) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 1, 100_KB);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1)));
  cluster.run();
  const auto snap = cluster.simulator().metrics().snapshot();
  EXPECT_EQ(snap.counterValue("mpi.n0.isend"), 1u);
  EXPECT_EQ(snap.counterValue("mpi.n1.irecv"), 1u);
  EXPECT_EQ(snap.counterValue("nic.ptl.n0.messages_sent"), 1u);
  EXPECT_EQ(snap.counterValue("nic.ptl.n0.frags_tx"), 25u);
  EXPECT_EQ(snap.counterValue("nic.ptl.n1.frags_rx"), 25u);
  EXPECT_GT(snap.counterValue("host.cpu1.0.interrupts"), 0u);
  EXPECT_GT(snap.counterValue("link.up0.packets"), 0u);
  EXPECT_EQ(snap.counterValue("no.such.counter"), 0u);
  // Counters exist (zero-valued) even where nothing happened.
  EXPECT_EQ(snap.counterValue("nic.ptl.n0.retransmits"), 0u);
}

}  // namespace
}  // namespace comb::sim
