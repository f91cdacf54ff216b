// Chrome trace-event export and the text summary behind
// `comb trace --summary`.
#include "report/trace_export.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "common/units.hpp"
#include "mpi/mpi.hpp"
#include "report/machine_stats.hpp"

namespace comb::report {
namespace {

using namespace comb::units;
using sim::TraceCategory;
using sim::TraceLog;

TEST(TraceLayer, CoversEveryCategory) {
  EXPECT_EQ(traceLayer(TraceCategory::Process), 1);
  EXPECT_EQ(traceLayer(TraceCategory::Compute), 1);
  EXPECT_EQ(traceLayer(TraceCategory::Interrupt), 1);
  EXPECT_EQ(traceLayer(TraceCategory::Phase), 1);
  EXPECT_EQ(traceLayer(TraceCategory::MpiCall), 2);
  EXPECT_EQ(traceLayer(TraceCategory::Protocol), 2);
  EXPECT_EQ(traceLayer(TraceCategory::NicEvent), 3);
  EXPECT_EQ(traceLayer(TraceCategory::Packet), 3);
  EXPECT_EQ(traceLayer(TraceCategory::Wire), 4);
  EXPECT_EQ(traceLayer(TraceCategory::Fault), 4);
  EXPECT_EQ(traceLayer(TraceCategory::Engine), 5);
  EXPECT_STREQ(traceLayerName(1), "host");
  EXPECT_STREQ(traceLayerName(2), "library");
  EXPECT_STREQ(traceLayerName(3), "nic");
  EXPECT_STREQ(traceLayerName(4), "wire");
  EXPECT_STREQ(traceLayerName(5), "engine");
}

TEST(ChromeTrace, EmitsEventsWithLayerTracks) {
  TraceLog log(32);
  log.beginSpan(1e-3, TraceCategory::MpiCall, 0, "isend", 1024);
  log.endSpan(2e-3, TraceCategory::MpiCall, 0, "isend");
  log.complete(3e-3, 5e-4, TraceCategory::Wire, 1, "up0", 4160);
  log.emit(4e-3, TraceCategory::Packet, 1, "->n0");

  std::ostringstream os;
  writeChromeTrace(os, log);
  const std::string s = os.str();
  // Header metadata: nothing dropped, record count recorded.
  EXPECT_NE(s.find("\"dropped\": 0"), std::string::npos);
  EXPECT_NE(s.find("\"records\": 4"), std::string::npos);
  // Span events on the library track of node 0's process (pid=node+1).
  EXPECT_NE(s.find("{\"ph\": \"B\", \"pid\": 1, \"tid\": 2"),
            std::string::npos);
  EXPECT_NE(s.find("{\"ph\": \"E\", \"pid\": 1, \"tid\": 2"),
            std::string::npos);
  // Complete event carries a duration in microseconds.
  EXPECT_NE(s.find("\"ph\": \"X\", \"pid\": 2, \"tid\": 4, \"ts\": "
                   "3000.000, \"dur\": 500.000"),
            std::string::npos);
  // Instant event.
  EXPECT_NE(s.find("\"ph\": \"i\""), std::string::npos);
  // Track naming metadata.
  EXPECT_NE(s.find("\"name\": \"node 0\""), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"library\""), std::string::npos);
  EXPECT_NE(s.find("\"name\": \"wire\""), std::string::npos);
  // Payload args survive.
  EXPECT_NE(s.find("\"args\": {\"a\": 4160, \"b\": 0}"), std::string::npos);
  // Labels become event names.
  EXPECT_NE(s.find("\"name\": \"isend\""), std::string::npos);
}

TEST(ChromeTrace, EscapesLabels) {
  TraceLog log(4);
  log.emit(0, TraceCategory::Protocol, 0, "odd\"label\\x");
  std::ostringstream os;
  writeChromeTrace(os, log);
  EXPECT_NE(os.str().find("\"odd\\\"label\\\\x\""), std::string::npos);
}

TEST(ChromeTrace, ReportsDrops) {
  TraceLog log(2);
  for (int i = 0; i < 5; ++i) log.emit(i * 1e-3, TraceCategory::Packet, 0, "p");
  std::ostringstream os;
  writeChromeTrace(os, log);
  EXPECT_NE(os.str().find("\"dropped\": 3"), std::string::npos);
}

TEST(TraceSummary, CountsAndTopSpans) {
  TraceLog log(32);
  log.beginSpan(0.0, TraceCategory::Phase, 0, "work");
  log.endSpan(10e-3, TraceCategory::Phase, 0, "work");  // 10ms — longest
  log.complete(1e-3, 2e-3, TraceCategory::Wire, 1, "up0");
  log.emit(2e-3, TraceCategory::Packet, 1, "->n0");
  std::ostringstream os;
  writeTraceSummary(os, log, 2);
  const std::string s = os.str();
  EXPECT_NE(s.find("4 record(s)"), std::string::npos);
  EXPECT_NE(s.find("phase"), std::string::npos);
  EXPECT_NE(s.find("packet"), std::string::npos);
  EXPECT_NE(s.find("top 2 spans"), std::string::npos);
  // The 10ms phase span outranks the 2ms wire transit.
  EXPECT_LT(s.find("work", s.find("top 2")), s.find("up0", s.find("top 2")));
}

TEST(TraceSummary, EmptyLog) {
  TraceLog log(4);
  std::ostringstream os;
  writeTraceSummary(os, log);
  EXPECT_NE(os.str().find("0 record(s)"), std::string::npos);
}

TEST(StatsJson, ExportsMetricsAlongsideFaults) {
  backend::SimCluster cluster(backend::gmMachine(), 2);
  cluster.enableTracing();
  auto sender = [](backend::SimProc& p) -> sim::Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 1, 10_KB);
  };
  auto receiver = [](backend::SimProc& p) -> sim::Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 1, 10_KB);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1)));
  cluster.run();
  const MachineStats stats = snapshot(cluster);
  EXPECT_EQ(stats.traceDropped, 0u);
  EXPECT_EQ(stats.metrics.counterValue("mpi.n0.isend"), 1u);

  std::ostringstream os;
  writeStatsJson(os, stats);
  const std::string s = os.str();
  EXPECT_NE(s.find("\"machine\": \"gm\""), std::string::npos);
  EXPECT_NE(s.find("\"faults\": {\"drops_injected\": 0"), std::string::npos);
  EXPECT_NE(s.find("\"trace_dropped\": 0"), std::string::npos);
  EXPECT_NE(s.find("\"metrics\": {"), std::string::npos);
  EXPECT_NE(s.find("\"mpi.n0.isend\": 1"), std::string::npos);
  EXPECT_NE(s.find("\"link.up0.packets\""), std::string::npos);
}

}  // namespace
}  // namespace comb::report
