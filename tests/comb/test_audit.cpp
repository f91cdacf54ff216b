// Trace-driven overlap audit: synthetic span data reconstructs the
// expected numbers, malformed data is rejected, and — the point of the
// subsystem — a real traced run reproduces the runner-reported statistics
// exactly.
#include "comb/audit.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "backend/machine.hpp"
#include "comb/runner.hpp"
#include "common/error.hpp"
#include "common/units.hpp"

namespace comb::bench {
namespace {

using namespace comb::units;
using sim::TraceCategory;
using sim::TraceLog;

void phaseSpan(TraceLog& log, const char* label, Time t0, Time t1,
               int node = 0) {
  log.beginSpan(t0, TraceCategory::Phase, node, label);
  log.endSpan(t1, TraceCategory::Phase, node, label);
}

TEST(AuditPww, ReconstructsFromSyntheticSpans) {
  TraceLog log(64);
  // Dry loop: 3 reps of 1ms each.
  phaseSpan(log, "dry", 0.0, 3e-3);
  // Warm-up cycle (slower — must be excluded) then 2 measured cycles.
  phaseSpan(log, "post", 10e-3, 12e-3);   // 2ms (warm-up)
  phaseSpan(log, "work", 12e-3, 15e-3);
  phaseSpan(log, "wait", 15e-3, 20e-3);
  phaseSpan(log, "post", 20e-3, 21e-3);   // 1ms
  phaseSpan(log, "work", 21e-3, 23e-3);   // 2ms
  phaseSpan(log, "wait", 23e-3, 26e-3);   // 3ms
  phaseSpan(log, "post", 26e-3, 27e-3);   // 1ms
  phaseSpan(log, "work", 27e-3, 29e-3);   // 2ms
  phaseSpan(log, "wait", 29e-3, 32e-3);   // 3ms
  const PwwAudit a = auditPww(log);
  EXPECT_EQ(a.reps, 2);
  EXPECT_NEAR(a.avgPost, 1e-3, 1e-12);
  EXPECT_NEAR(a.avgWork, 2e-3, 1e-12);
  EXPECT_NEAR(a.avgWait, 3e-3, 1e-12);
  EXPECT_NEAR(a.dryWork, 1e-3, 1e-12);
  EXPECT_NEAR(a.availability, 1e-3 / 6e-3, 1e-9);
}

TEST(AuditPww, IgnoresOtherNodesSpans) {
  TraceLog log(64);
  phaseSpan(log, "dry", 0.0, 2e-3, 0);
  phaseSpan(log, "post", 2e-3, 3e-3, 0);
  phaseSpan(log, "work", 3e-3, 4e-3, 0);
  phaseSpan(log, "wait", 4e-3, 5e-3, 0);
  phaseSpan(log, "post", 5e-3, 6e-3, 0);
  phaseSpan(log, "work", 6e-3, 7e-3, 0);
  phaseSpan(log, "wait", 7e-3, 8e-3, 0);
  // Unrelated phases on the support rank must not change anything.
  phaseSpan(log, "post", 0.0, 50e-3, 1);
  phaseSpan(log, "work", 50e-3, 99e-3, 1);
  phaseSpan(log, "wait", 99e-3, 100e-3, 1);
  const PwwAudit a = auditPww(log, 0);
  EXPECT_EQ(a.reps, 1);
  EXPECT_NEAR(a.avgPost, 1e-3, 1e-12);
}

TEST(AuditPww, RejectsMalformedSpans) {
  {  // no dry span
    TraceLog log(16);
    phaseSpan(log, "post", 0, 1e-3);
    EXPECT_THROW(auditPww(log), Error);
  }
  {  // mismatched triple counts
    TraceLog log(16);
    phaseSpan(log, "dry", 0, 1e-3);
    phaseSpan(log, "post", 1e-3, 2e-3);
    phaseSpan(log, "post", 2e-3, 3e-3);
    phaseSpan(log, "work", 1e-3, 2e-3);
    phaseSpan(log, "wait", 2e-3, 3e-3);
    EXPECT_THROW(auditPww(log), Error);
  }
  {  // a dropped ring means an incomplete timeline
    TraceLog log(2);
    phaseSpan(log, "dry", 0, 1e-3);
    phaseSpan(log, "post", 1e-3, 2e-3);  // evicts the dry span
    EXPECT_THROW(auditPww(log), Error);
  }
}

TEST(AuditPolling, ReconstructsFromSyntheticSpans) {
  TraceLog log(16);
  phaseSpan(log, "dry", 0.0, 4e-3);
  phaseSpan(log, "live", 10e-3, 26e-3);
  const PollingAudit a = auditPolling(log);
  EXPECT_NEAR(a.dryTime, 4e-3, 1e-12);
  EXPECT_NEAR(a.liveTime, 16e-3, 1e-12);
  EXPECT_NEAR(a.availability, 0.25, 1e-9);
}

TEST(AuditCheck, DetectsDisagreement) {
  PwwAudit a;
  a.reps = 2;
  a.avgPost = 1e-3;
  a.avgWork = 2e-3;
  a.avgWait = 3e-3;
  a.dryWork = 1.8e-3;
  a.availability = 0.3;
  PwwPoint p;
  p.reps = 2;
  p.avgPost = 1e-3;
  p.avgWork = 2e-3;
  p.avgWait = 3e-3;
  p.dryWork = 1.8e-3;
  p.availability = 0.3;
  EXPECT_TRUE(checkPww(a, p).empty());
  p.avgWork = 2.5e-3;  // 25% off
  const auto err = checkPww(a, p);
  EXPECT_NE(err.find("avgWork"), std::string::npos);
  p.avgWork = 2e-3;
  p.reps = 3;
  EXPECT_NE(checkPww(a, p).find("reps"), std::string::npos);

  PollingAudit pa;
  pa.dryTime = 1e-3;
  pa.liveTime = 2e-3;
  pa.availability = 0.5;
  PollingPoint pp;
  pp.dryTime = 1e-3;
  pp.liveTime = 2e-3;
  pp.availability = 0.5;
  EXPECT_TRUE(checkPolling(pa, pp).empty());
  pp.availability = 0.6;
  EXPECT_NE(checkPolling(pa, pp).find("availability"), std::string::npos);
}

// --- the real thing ---------------------------------------------------------

TEST(AuditIntegration, PwwTraceMatchesReportedPointOnBothMachines) {
  PwwParams params;
  params.msgBytes = 100_KB;
  params.workInterval = 200'000;
  params.reps = 4;
  for (const auto& machine :
       {backend::gmMachine(), backend::portalsMachine()}) {
    const auto run = runPointTraced(machine, params);
    ASSERT_NE(run.trace, nullptr);
    EXPECT_EQ(run.trace->dropped(), 0u) << machine.name;
    const PwwAudit audit = auditPww(*run.trace);
    EXPECT_EQ(checkPww(audit, run.point), "") << machine.name;
    // Spans bracket the exact wtime() stamps, so this is equality to
    // floating-point noise, not merely the 1% audit tolerance.
    EXPECT_NEAR(audit.avgWork, run.point.avgWork,
                1e-9 * std::abs(run.point.avgWork))
        << machine.name;
    EXPECT_NEAR(audit.availability, run.point.availability, 1e-9)
        << machine.name;
  }
}

TEST(AuditIntegration, PollingTraceMatchesReportedPointOnBothMachines) {
  PollingParams params;
  params.msgBytes = 100_KB;
  params.pollInterval = 10'000;
  params.targetDuration = 10e-3;
  params.maxPolls = 4'000;
  for (const auto& machine :
       {backend::gmMachine(), backend::portalsMachine()}) {
    const auto run = runPointTraced(machine, params);
    ASSERT_NE(run.trace, nullptr);
    EXPECT_EQ(run.trace->dropped(), 0u) << machine.name;
    const PollingAudit audit = auditPolling(*run.trace);
    EXPECT_EQ(checkPolling(audit, run.point), "") << machine.name;
    EXPECT_NEAR(audit.availability, run.point.availability, 1e-9)
        << machine.name;
  }
}

TEST(AuditIntegration, ProgressEngineTraceAuditsLosslessAndLossy) {
  // The engine's drain sessions run while the application is inside its
  // own library calls; both must trace without their spans colliding.
  PwwParams params;
  params.msgBytes = 10_KB;
  params.workInterval = 1'000;
  for (auto machine : {backend::progressThreadMachine(),
                       backend::progressOversubMachine()}) {
    for (const double drop : {0.0, 0.01}) {
      machine.fabric.link.fault.dropProb = drop;
      machine.fabric.link.fault.seed = 3;
      const auto run = runPointTraced(machine, params);
      ASSERT_NE(run.trace, nullptr);
      EXPECT_EQ(run.trace->openSpans(), 0u) << machine.name << " " << drop;
      EXPECT_GT(run.trace->countSpans(TraceCategory::Engine), 0u)
          << machine.name << " " << drop;
      EXPECT_EQ(checkPww(auditPww(*run.trace), run.point), "")
          << machine.name << " " << drop;
    }
  }
}

TEST(AuditIntegration, TracedPointEqualsUntracedPoint) {
  // Tracing must be a pure observer: the measured numbers are identical
  // with and without the log attached.
  PwwParams params;
  params.msgBytes = 100_KB;
  params.workInterval = 150'000;
  params.reps = 3;
  const auto machine = backend::portalsMachine();
  const PwwPoint plain = runPoint(machine, params);
  const auto traced = runPointTraced(machine, params);
  EXPECT_EQ(plain.avgPost, traced.point.avgPost);
  EXPECT_EQ(plain.avgWork, traced.point.avgWork);
  EXPECT_EQ(plain.avgWait, traced.point.avgWait);
  EXPECT_EQ(plain.dryWork, traced.point.dryWork);
  EXPECT_EQ(plain.availability, traced.point.availability);
  EXPECT_EQ(plain.bandwidthBps, traced.point.bandwidthBps);
}

}  // namespace
}  // namespace comb::bench
