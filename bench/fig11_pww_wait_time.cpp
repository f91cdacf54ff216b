// Figure 11 — PWW method: average wait time (100 KB), GM vs Portals.
//
// Paper: "given a large enough work interval, Portals will virtually
// complete messaging whereas GM will not" — the application-offload
// detector. Portals' wait time falls to ~0; GM's stays near the full
// transfer time no matter how long the work interval is.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig11", "PWW method: average wait time (100 KB)");
  if (!args.parsedOk) return args.exitCode;

  const auto intervals = presets::workSweep(args.pointsPerDecade);
  const auto spec = sweepOver(presets::pwwBase(100_KB), intervals);
  const auto gmRuns =
      runSweepReps(backend::gmMachine(), spec, args.opts);
  const auto portalsRuns =
      runSweepReps(backend::portalsMachine(), spec, args.opts);
  const auto gm = canonicalPoints(gmRuns);
  const auto portals = canonicalPoints(portalsRuns);

  report::Figure fig("fig11", "PWW Method: Average Wait Time (100 KB)",
                     "work_interval_iters", "wait_time_us");
  fig.logX().paperExpectation(
      "Portals wait falls to ~0 at long work intervals (application "
      "offload); GM wait stays ~constant at the full exchange time (no "
      "offload)");

  auto gmSeries =
      makeSeries("GM", intervals, gm,
                 [](const PwwPoint& p) { return p.avgWaitPerMsg * 1e6; });
  auto ptlSeries =
      makeSeries("Portals", intervals, portals,
                 [](const PwwPoint& p) { return p.avgWaitPerMsg * 1e6; });

  std::vector<report::ShapeCheck> checks;
  checks.push_back(report::checkEndsBelow(
      "Portals wait -> ~0 at long work intervals", ptlSeries.ys, 20.0));
  checks.push_back(report::checkEndsAbove(
      "GM wait stays ~ message time (no offload)", gmSeries.ys, 800.0));
  checks.push_back(
      report::checkFlat("GM wait flat across work intervals", gmSeries.ys,
                        0.35));
  fig.addSeries(std::move(gmSeries));
  fig.addSeries(std::move(ptlSeries));
  FigArchive archive("fig11_pww_wait_time", args);
  archive.add("pww/gm/100 KB", backend::gmMachine(), intervals, gmRuns);
  archive.add("pww/portals/100 KB", backend::portalsMachine(), intervals,
              portalsRuns);
  archive.write();
  return finishFigure(fig, checks, args);
}
