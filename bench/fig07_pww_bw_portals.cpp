// Figure 7 — PWW method: bandwidth vs work interval, Portals.
//
// Paper: compared with the polling method's bandwidth (Fig 5), the
// decline with growing work interval is more gradual — PWW cannot hold
// the peak plateau as long because each cycle serializes post/work/wait.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig07", "PWW method: bandwidth vs work interval (Portals)");
  if (!args.parsedOk) return args.exitCode;

  const auto machine = backend::portalsMachine();
  const auto fam =
      runFamily(machine, presets::pwwBase, presets::paperMessageSizes(),
                presets::workSweep(args.pointsPerDecade), args.opts);

  report::Figure fig("fig07", "PWW Method: Bandwidth (Portals)",
                     "work_interval_iters", "bandwidth_MBps");
  fig.logX().paperExpectation(
      "bandwidth declines gradually as the work interval grows; larger "
      "messages sustain more bandwidth at every interval");

  std::vector<report::ShapeCheck> checks;
  std::vector<report::Series> bySize;
  for (std::size_t i = 0; i < fam.sizes.size(); ++i) {
    auto s = makeSeries(
        sizeLabel(fam.sizes[i]), fam.xs, fam.results[i],
        [](const PwwPoint& p) { return toMBps(p.bandwidthBps); });
    checks.push_back(report::checkEndsBelow(
        "bandwidth falls off at long work intervals (" + s.name + ")", s.ys,
        0.25 * *std::max_element(s.ys.begin(), s.ys.end())));
    bySize.push_back(s);
    fig.addSeries(std::move(s));
  }
  // Ordering: at the shortest work interval, larger message => more
  // bandwidth (paper's series never cross at the left edge).
  for (std::size_t i = 1; i < bySize.size(); ++i) {
    report::ShapeCheck c{
        "larger message >= smaller at left edge (" + bySize[i].name + ")",
        bySize[i].ys.front() >= bySize[i - 1].ys.front(),
        strFormat("%.1f vs %.1f MB/s", bySize[i].ys.front(),
                  bySize[i - 1].ys.front())};
    checks.push_back(std::move(c));
  }
  FigArchive archive("fig07_pww_bw_portals", args);
  archive.add("pww/portals", machine, fam);
  archive.write();
  return finishFigure(fig, checks, args);
}
