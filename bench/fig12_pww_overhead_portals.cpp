// Figure 12 — PWW method: CPU overhead, Portals.
//
// Paper: plots time to complete the work phase with message handling
// ("Work with MH") against the same work without communication ("Work
// Only"), on a LINEAR work-interval axis. For kernel-based Portals the
// with-MH line sits visibly above: interrupts and kernel copies steal
// cycles from the application during its work phase.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

namespace {

std::vector<std::uint64_t> linearSweep() {
  std::vector<std::uint64_t> xs;
  for (std::uint64_t v = 50'000; v <= 500'000; v += 50'000) xs.push_back(v);
  return xs;
}

}  // namespace

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(argc, argv, "fig12",
                                    "PWW method: CPU overhead (Portals)");
  if (!args.parsedOk) return args.exitCode;

  const auto intervals = linearSweep();
  const auto runs =
      runSweepReps(backend::portalsMachine(),
                   sweepOver(presets::pwwBase(100_KB), intervals),
                   args.opts);
  const auto pts = canonicalPoints(runs);

  report::Figure fig("fig12", "PWW Method: CPU Overhead (Portals)",
                     "work_interval_iters", "work_phase_us");
  fig.paperExpectation(
      "'Work with MH' visibly above 'Work Only': interrupt + kernel-copy "
      "overhead stretches the work phase while messages flow");

  auto withMh = makeSeries("Work with MH", intervals, pts,
                           [](const PwwPoint& p) { return p.avgWork * 1e6; });
  auto workOnly = makeSeries("Work Only", intervals, pts,
                             [](const PwwPoint& p) { return p.dryWork * 1e6; });

  std::vector<report::ShapeCheck> checks;
  // Every point: with-MH above work-only by a clear margin somewhere.
  bool allAbove = true;
  double maxGap = 0;
  for (std::size_t i = 0; i < withMh.ys.size(); ++i) {
    allAbove = allAbove && withMh.ys[i] >= workOnly.ys[i];
    maxGap = std::max(maxGap, withMh.ys[i] - workOnly.ys[i]);
  }
  checks.push_back(report::ShapeCheck{
      "work-with-MH >= work-only at every interval", allAbove,
      strFormat("max gap %.0f us", maxGap)});
  checks.push_back(report::ShapeCheck{
      "overhead gap is substantial (> 100 us somewhere)", maxGap > 100.0,
      strFormat("max gap %.0f us", maxGap)});
  checks.push_back(report::checkNearlyMonotone(
      "work-only grows linearly with the interval", workOnly.ys, true, 1.0));
  fig.addSeries(std::move(withMh));
  fig.addSeries(std::move(workOnly));

  FigArchive archive("fig12_pww_overhead_portals", args);
  archive.add("pww/portals/100 KB", backend::portalsMachine(), intervals,
              runs);
  archive.write();

  // --trace: re-run the middle sweep point fully traced, export, audit.
  auto traced = presets::pwwBase(100_KB);
  traced.workInterval = intervals[intervals.size() / 2];
  const bool traceOk =
      maybeTrace(backend::portalsMachine(), traced, args);

  const int rc = finishFigure(fig, checks, args);
  return traceOk ? rc : std::max(rc, 1);
}
