// Figure 9 — PWW method: bandwidth, GM vs Portals (100 KB).
//
// Paper: "the performance of GM [is] significantly better than Portals
// for smaller work intervals"; both decay as the work interval dominates
// the cycle.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig09", "PWW method: bandwidth, GM vs Portals (100 KB)");
  if (!args.parsedOk) return args.exitCode;

  const auto intervals = presets::workSweep(args.pointsPerDecade);
  const auto spec = sweepOver(presets::pwwBase(100_KB), intervals);
  const auto gmRuns =
      runSweepReps(backend::gmMachine(), spec, args.opts);
  const auto portalsRuns =
      runSweepReps(backend::portalsMachine(), spec, args.opts);
  const auto gm = canonicalPoints(gmRuns);
  const auto portals = canonicalPoints(portalsRuns);

  report::Figure fig("fig09", "PWW Method: Bandwidth, GM vs Portals",
                     "work_interval_iters", "bandwidth_MBps");
  fig.logX().paperExpectation(
      "GM well above Portals at small work intervals; both decline as the "
      "work interval dominates the cycle");

  auto gmSeries =
      makeSeries("GM", intervals, gm,
                 [](const PwwPoint& p) { return toMBps(p.bandwidthBps); });
  auto ptlSeries =
      makeSeries("Portals", intervals, portals,
                 [](const PwwPoint& p) { return toMBps(p.bandwidthBps); });

  std::vector<report::ShapeCheck> checks;
  checks.push_back(report::ShapeCheck{
      "GM > Portals at the smallest work interval",
      gmSeries.ys.front() > 1.2 * ptlSeries.ys.front(),
      strFormat("GM=%.1f Portals=%.1f MB/s", gmSeries.ys.front(),
                ptlSeries.ys.front())});
  checks.push_back(report::checkEndsBelow("GM decays at long work intervals",
                                          gmSeries.ys,
                                          0.25 * gmSeries.ys.front()));
  checks.push_back(report::checkEndsBelow(
      "Portals decays at long work intervals", ptlSeries.ys,
      0.25 * *std::max_element(ptlSeries.ys.begin(), ptlSeries.ys.end())));
  fig.addSeries(std::move(gmSeries));
  fig.addSeries(std::move(ptlSeries));
  FigArchive archive("fig09_pww_bw_gm_vs_portals", args);
  archive.add("pww/gm/100 KB", backend::gmMachine(), intervals, gmRuns);
  archive.add("pww/portals/100 KB", backend::portalsMachine(), intervals,
              portalsRuns);
  archive.write();
  return finishFigure(fig, checks, args);
}
