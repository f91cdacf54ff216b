// Bit-identity of rendered figure CSVs: the simulator is deterministic
// and the parallel sweep executor promises results identical to serial
// order, so the same sweep rendered twice — run-to-run, and jobs=1 vs
// jobs=4 — must produce byte-equal CSV on both machine files. This is
// the regression net for the allocation-free hot path: pooling events
// and payloads must change real time only, never virtual time.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "backend/machine.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/units.hpp"
#include "report/figure.hpp"

namespace comb::bench {
namespace {

using namespace comb::units;

report::Figure pollingFigure(const std::vector<std::uint64_t>& intervals,
                             const std::vector<PollingPoint>& pts) {
  report::Figure fig("fig04_identity", "availability vs poll interval",
                     "poll_interval_iters", "cpu_availability");
  report::Series s;
  s.name = "100KB";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.xs.push_back(static_cast<double>(intervals[i]));
    s.ys.push_back(pts[i].availability);
  }
  fig.addSeries(std::move(s));
  return fig;
}

PollingParams identityBase() {
  auto base = presets::pollingBase(100_KB);
  base.targetDuration = 15e-3;
  base.maxPolls = 15'000;
  return base;
}

std::string fig04StyleCsv(const backend::MachineConfig& machine, int jobs) {
  RunOptions opts;
  opts.jobs = jobs;
  const auto intervals = presets::pollSweep(1);
  const auto pts =
      runSweep(machine, sweepOver(identityBase(), intervals), opts);
  std::ostringstream out;
  pollingFigure(intervals, pts).writeCsv(out);
  return out.str();
}

/// Same sweep, but every point runs with a TraceLog attached. Tracing is a
/// pure observer, so the rendered CSV must be byte-equal to the untraced
/// sweep's.
std::string fig04StyleCsvTraced(const backend::MachineConfig& machine) {
  const auto intervals = presets::pollSweep(1);
  std::vector<PollingPoint> pts;
  for (const auto interval : intervals) {
    auto params = identityBase();
    params.pollInterval = interval;
    pts.push_back(runPointTraced(machine, params).point);
  }
  std::ostringstream out;
  pollingFigure(intervals, pts).writeCsv(out);
  return out.str();
}

TEST(CsvIdentity, Fig04ByteIdenticalAcrossRunsAndJobsOnGm) {
  const auto machine = backend::gmMachine();
  const std::string serial = fig04StyleCsv(machine, 1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(fig04StyleCsv(machine, 1), serial) << "run-to-run drift (gm)";
  EXPECT_EQ(fig04StyleCsv(machine, 4), serial) << "jobs=4 drift (gm)";
}

TEST(CsvIdentity, Fig04ByteIdenticalAcrossRunsAndJobsOnPortals) {
  const auto machine = backend::portalsMachine();
  const std::string serial = fig04StyleCsv(machine, 1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(fig04StyleCsv(machine, 1), serial)
      << "run-to-run drift (portals)";
  EXPECT_EQ(fig04StyleCsv(machine, 4), serial) << "jobs=4 drift (portals)";
}

TEST(CsvIdentity, TracingEnabledMatchesDisabledOnGm) {
  const auto machine = backend::gmMachine();
  const std::string traced = fig04StyleCsvTraced(machine);
  EXPECT_FALSE(traced.empty());
  EXPECT_EQ(fig04StyleCsv(machine, 1), traced)
      << "tracing perturbed results vs jobs=1 (gm)";
  EXPECT_EQ(fig04StyleCsv(machine, 4), traced)
      << "tracing perturbed results vs jobs=4 (gm)";
}

TEST(CsvIdentity, TracingEnabledMatchesDisabledOnPortals) {
  const auto machine = backend::portalsMachine();
  const std::string traced = fig04StyleCsvTraced(machine);
  EXPECT_FALSE(traced.empty());
  EXPECT_EQ(fig04StyleCsv(machine, 1), traced)
      << "tracing perturbed results vs jobs=1 (portals)";
  EXPECT_EQ(fig04StyleCsv(machine, 4), traced)
      << "tracing perturbed results vs jobs=4 (portals)";
}

}  // namespace
}  // namespace comb::bench
