// Figure 13 — PWW method: CPU overhead, GM.
//
// Paper: for GM the two lines coincide — "virtually no communication
// overhead in that the time to do work is the same regardless of the
// presence or absence of communication". (Message handling is blocked
// during the PWW work phase and GM raises no interrupts, so nothing can
// steal application cycles.)
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
  const FigArgs args =
      parseFigArgs(argc, argv, "fig13", "PWW method: CPU overhead (GM)");
  if (!args.parsedOk) return args.exitCode;

  const auto intervals = linearSweep();
  const auto runs =
      runSweepReps(backend::gmMachine(),
                   sweepOver(presets::pwwBase(100_KB), intervals),
                   args.opts);
  const auto pts = canonicalPoints(runs);

  report::Figure fig("fig13", "PWW Method: CPU Overhead (GM)",
                     "work_interval_iters", "work_phase_us");
  fig.paperExpectation(
      "'Work with MH' and 'Work Only' coincide: OS-bypass GM steals no "
      "application cycles during the work phase");

  auto withMh = makeSeries("Work with MH", intervals, pts,
                           [](const PwwPoint& p) { return p.avgWork * 1e6; });
  auto workOnly = makeSeries("Work Only", intervals, pts,
                             [](const PwwPoint& p) { return p.dryWork * 1e6; });

  std::vector<report::ShapeCheck> checks;
  double maxRelGap = 0;
  for (std::size_t i = 0; i < withMh.ys.size(); ++i) {
    maxRelGap = std::max(
        maxRelGap, std::abs(withMh.ys[i] - workOnly.ys[i]) / workOnly.ys[i]);
  }
  checks.push_back(report::ShapeCheck{
      "work phase identical with and without messaging (<1% gap)",
      maxRelGap < 0.01, strFormat("max relative gap %.3f%%", 100 * maxRelGap)});
  fig.addSeries(std::move(withMh));
  fig.addSeries(std::move(workOnly));

  FigArchive archive("fig13_pww_overhead_gm", args);
  archive.add("pww/gm/100 KB", backend::gmMachine(), intervals, runs);
  archive.write();

  // --trace: re-run the middle sweep point fully traced, export, audit.
  auto traced = presets::pwwBase(100_KB);
  traced.workInterval = intervals[intervals.size() / 2];
  const bool traceOk = maybeTrace(backend::gmMachine(), traced, args);

  const int rc = finishFigure(fig, checks, args);
  return traceOk ? rc : std::max(rc, 1);
}
