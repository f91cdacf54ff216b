// Figure 6 — PWW method: CPU availability vs work interval, Portals.
//
// Paper: unlike the polling graph (Fig 4) there is NO initial plateau —
// PWW waits for the batch regardless, so short work intervals are
// dominated by post+wait time and availability starts near zero, rising
// steadily as the work interval grows.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig06",
      "PWW method: CPU availability vs work interval (Portals)");
  if (!args.parsedOk) return args.exitCode;

  const auto machine = backend::portalsMachine();
  const auto fam =
      runFamily(machine, presets::pwwBase, presets::paperMessageSizes(),
                presets::workSweep(args.pointsPerDecade), args.opts);

  report::Figure fig("fig06", "PWW Method: CPU Availability (Portals)",
                     "work_interval_iters", "cpu_availability");
  fig.logX().yRange(0.0, 1.0).paperExpectation(
      "no low plateau (PWW waits regardless): availability starts near 0 "
      "at short work intervals and rises steadily toward 1");

  std::vector<report::ShapeCheck> checks;
  for (std::size_t i = 0; i < fam.sizes.size(); ++i) {
    auto s = makeSeries(sizeLabel(fam.sizes[i]), fam.xs,
                        fam.results[i],
                        [](const PwwPoint& p) { return p.availability; });
    checks.push_back(report::checkRisesFromLowToHigh(
        "availability rises low->high (" + s.name + ")", s.ys, 0.30, 0.85));
    checks.push_back(report::checkNearlyMonotone(
        "availability ~monotone in work interval (" + s.name + ")", s.ys,
        /*increasing=*/true, 0.08));
    fig.addSeries(std::move(s));
  }
  FigArchive archive("fig06_pww_avail_portals", args);
  archive.add("pww/portals", machine, fam);
  archive.write();
  return finishFigure(fig, checks, args);
}
