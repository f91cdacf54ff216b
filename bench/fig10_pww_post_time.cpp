// Figure 10 — PWW method: average time to post (100 KB), GM vs Portals.
//
// Paper: GM posts a rendezvous descriptor in a few microseconds; a
// Portals post is a syscall plus kernel match-entry setup (plus interrupt
// interference while traffic flows) — roughly 160-180 us. "GM
// significantly outperforms Portals."
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig10", "PWW method: average post time (100 KB)");
  if (!args.parsedOk) return args.exitCode;

  const auto intervals = presets::workSweep(args.pointsPerDecade);
  const auto spec = sweepOver(presets::pwwBase(100_KB), intervals);
  const auto gmRuns =
      runSweepReps(backend::gmMachine(), spec, args.opts);
  const auto portalsRuns =
      runSweepReps(backend::portalsMachine(), spec, args.opts);
  const auto gm = canonicalPoints(gmRuns);
  const auto portals = canonicalPoints(portalsRuns);

  report::Figure fig("fig10", "PWW Method: Average Post Time (100 KB)",
                     "work_interval_iters", "time_to_post_us");
  fig.logX().paperExpectation(
      "Portals ~160-180 us per post (syscall + kernel setup), GM a few us "
      "(descriptor write); both roughly flat across work intervals");

  auto gmSeries =
      makeSeries("GM", intervals, gm,
                 [](const PwwPoint& p) { return p.avgPostPerOp * 1e6; });
  auto ptlSeries =
      makeSeries("Portals", intervals, portals,
                 [](const PwwPoint& p) { return p.avgPostPerOp * 1e6; });

  std::vector<report::ShapeCheck> checks;
  checks.push_back(report::checkPeakRatio(
      "Portals posts cost >=10x GM posts", ptlSeries.ys, gmSeries.ys, 10.0));
  checks.push_back(report::ShapeCheck{
      "GM post cost is a few microseconds",
      gmSeries.ys.front() > 1.0 && gmSeries.ys.front() < 20.0,
      strFormat("GM=%.1f us", gmSeries.ys.front())});
  checks.push_back(report::ShapeCheck{
      "Portals post cost in paper's order (~100-400 us)",
      ptlSeries.ys.front() > 100.0 && ptlSeries.ys.front() < 400.0,
      strFormat("Portals=%.1f us", ptlSeries.ys.front())});
  fig.addSeries(std::move(gmSeries));
  fig.addSeries(std::move(ptlSeries));
  FigArchive archive("fig10_pww_post_time", args);
  archive.add("pww/gm/100 KB", backend::gmMachine(), intervals, gmRuns);
  archive.add("pww/portals/100 KB", backend::portalsMachine(), intervals,
              portalsRuns);
  archive.write();
  return finishFigure(fig, checks, args);
}
