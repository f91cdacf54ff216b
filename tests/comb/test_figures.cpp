// Figure-pipeline integration: run reduced versions of the paper sweeps
// and assert the same shape expectations the figure benches print. This
// keeps "the figures reproduce" inside ctest, not just inside bench
// binaries someone has to run and read.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "backend/machine.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/units.hpp"
#include "report/expectations.hpp"
#include "report/figure.hpp"

namespace comb::bench {
namespace {

using namespace comb::units;
using report::ShapeCheck;

// One point per decade keeps each sweep around 100 ms of wall time.
std::vector<std::uint64_t> quickPolls() { return presets::pollSweep(1); }
std::vector<std::uint64_t> quickWorks() { return presets::workSweep(1); }

PollingParams quickPolling(Bytes size) {
  auto p = presets::pollingBase(size);
  p.targetDuration = 15e-3;
  p.maxPolls = 15'000;
  return p;
}

PwwParams quickPww(Bytes size) {
  auto p = presets::pwwBase(size);
  p.reps = 9;
  return p;
}

template <typename Points, typename F>
std::vector<double> ys(const Points& pts, F&& f) {
  std::vector<double> out;
  for (const auto& p : pts) out.push_back(f(p));
  return out;
}

TEST(FigurePipeline, Fig4AvailabilityRise) {
  const auto pts = runSweep(backend::portalsMachine(),
                            sweepOver(quickPolling(100_KB), quickPolls()));
  const auto avail =
      ys(pts, [](const PollingPoint& p) { return p.availability; });
  EXPECT_TRUE(
      report::checkRisesFromLowToHigh("fig4", avail, 0.25, 0.9).pass);
  EXPECT_TRUE(report::checkNearlyMonotone("fig4", avail, true, 0.08).pass);
}

TEST(FigurePipeline, Fig5PlateauDecline) {
  const auto pts = runSweep(backend::portalsMachine(),
                            sweepOver(quickPolling(100_KB), quickPolls()));
  const auto bw =
      ys(pts, [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
  EXPECT_TRUE(report::checkPlateauThenDecline("fig5", bw, 0.2, 0.5).pass);
}

TEST(FigurePipeline, Fig8WhoWins) {
  const auto gm = runSweep(backend::gmMachine(),
                           sweepOver(quickPolling(100_KB), quickPolls()));
  const auto portals = runSweep(
      backend::portalsMachine(), sweepOver(quickPolling(100_KB), quickPolls()));
  const auto gmBw =
      ys(gm, [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
  const auto ptlBw = ys(
      portals, [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
  EXPECT_TRUE(report::checkPeakRatio("fig8", gmBw, ptlBw, 1.3, 2.0).pass);
}

TEST(FigurePipeline, Fig11OffloadDetector) {
  const auto gm =
      runSweep(backend::gmMachine(), sweepOver(quickPww(100_KB), quickWorks()));
  const auto portals =
      runSweep(backend::portalsMachine(),
               sweepOver(quickPww(100_KB), quickWorks()));
  const auto gmWait =
      ys(gm, [](const PwwPoint& p) { return p.avgWaitPerMsg * 1e6; });
  const auto ptlWait =
      ys(portals, [](const PwwPoint& p) { return p.avgWaitPerMsg * 1e6; });
  EXPECT_TRUE(report::checkEndsBelow("portals wait", ptlWait, 20.0).pass);
  EXPECT_TRUE(report::checkEndsAbove("gm wait", gmWait, 800.0).pass);
  EXPECT_TRUE(report::checkFlat("gm wait flat", gmWait, 0.35).pass);
}

TEST(FigurePipeline, Fig14GmFrontier) {
  const auto pts = runSweep(backend::gmMachine(),
                            sweepOver(quickPolling(100_KB), quickPolls()));
  const auto avail =
      ys(pts, [](const PollingPoint& p) { return p.availability; });
  const auto bw =
      ys(pts, [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
  const double peak = *std::max_element(bw.begin(), bw.end());
  EXPECT_TRUE(
      report::checkCoexists("fig14", avail, bw, 0.9, 0.85 * peak).pass);
}

TEST(FigurePipeline, Fig17CallEffect) {
  auto plain = quickPww(100_KB);
  auto withTest = plain;
  withTest.testCallAtFraction = 0.1;
  const auto works = quickWorks();
  const auto a = runSweep(backend::gmMachine(), sweepOver(plain, works));
  const auto b =
      runSweep(backend::gmMachine(), sweepOver(withTest, works));
  // At the longest work interval the test call must have drained the wait.
  EXPECT_GT(a.back().avgWaitPerMsg, 800e-6);
  EXPECT_LT(b.back().avgWaitPerMsg, 100e-6);
}

TEST(FigurePipeline, FigureRendersFromSweep) {
  // End-to-end: sweep -> Figure -> render + CSV, no exceptions, sane text.
  const auto pts = runSweep(backend::gmMachine(),
                            sweepOver(quickPolling(50_KB), quickPolls()));
  report::Figure fig("itest", "Integration", "poll_interval", "MBps");
  report::Series s{"GM 50KB", {}, {}};
  for (const auto& p : pts) {
    s.xs.push_back(static_cast<double>(p.pollInterval));
    s.ys.push_back(toMBps(p.bandwidthBps));
  }
  fig.logX().addSeries(std::move(s));
  std::ostringstream os;
  fig.render(os);
  EXPECT_NE(os.str().find("itest: Integration"), std::string::npos);
  std::ostringstream csv;
  fig.writeCsv(csv);
  EXPECT_NE(csv.str().find("GM 50KB"), std::string::npos);
}

}  // namespace
}  // namespace comb::bench
