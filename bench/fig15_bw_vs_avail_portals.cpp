// Figure 15 — Polling method: bandwidth vs CPU availability, Portals.
//
// Paper: "the Portals communication overhead ... restricts maximum
// sustained bandwidth to the lower ranges of CPU availability" — the
// mirror image of GM's Fig 14.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig15",
      "Polling method: bandwidth vs CPU availability (Portals)");
  if (!args.parsedOk) return args.exitCode;

  const auto machine = backend::portalsMachine();
  const auto fam =
      runFamily(machine, presets::pollingBase, presets::paperMessageSizes(),
                presets::pollSweep(args.pointsPerDecade + 1), args.opts);

  report::Figure fig(
      "fig15", "Polling Method: Bandwidth vs CPU Availability (Portals)",
      "cpu_availability", "bandwidth_MBps");
  fig.paperExpectation(
      "maximum sustained bandwidth exists only at LOW availability "
      "(interrupt + copy overhead); at high availability bandwidth has "
      "collapsed");

  std::vector<report::ShapeCheck> checks;
  for (std::size_t i = 0; i < fam.sizes.size(); ++i) {
    auto s = makeParametricSeries(
        sizeLabel(fam.sizes[i]), fam.results[i],
        [](const PollingPoint& p) { return p.availability; },
        [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
    const double peak = *std::max_element(s.ys.begin(), s.ys.end());
    // Peak bandwidth must NOT coexist with high availability...
    auto bad = report::checkCoexists(
        "", std::vector<double>(s.xs.begin(), s.xs.end()), s.ys, 0.6,
        0.8 * peak);
    bad.pass = !bad.pass;
    bad.name = "peak bandwidth confined to low availability (" + s.name + ")";
    checks.push_back(std::move(bad));
    // ...and peak bandwidth must exist at some low-availability point.
    checks.push_back(report::checkCoexists(
        "peak bandwidth present at low availability (" + s.name + ")",
        [&] {
          std::vector<double> inverted;
          for (double a : s.xs) inverted.push_back(1.0 - a);
          return inverted;
        }(),
        s.ys, 0.6 /* i.e. availability <= 0.4 */, 0.9 * peak));
    fig.addSeries(std::move(s));
  }
  FigArchive archive("fig15_bw_vs_avail_portals", args);
  archive.add("polling/portals", machine, fam);
  archive.write();
  return finishFigure(fig, checks, args);
}
