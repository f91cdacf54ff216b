// Figure 5 — Polling method: bandwidth vs poll interval, Portals.
//
// Paper: a plateau of maximum sustained bandwidth followed by a steep
// decline once the poll interval is long enough that every in-flight
// message completes inside it and flow stalls until the next poll.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;

int main(int argc, char** argv) {
  const FigArgs args =
      parseFigArgs(argc, argv, "fig05",
                   "Polling method: bandwidth vs poll interval (Portals)");
  if (!args.parsedOk) return args.exitCode;

  const auto machine = backend::portalsMachine();
  const auto fam =
      runFamily(machine, presets::pollingBase, presets::paperMessageSizes(),
                presets::pollSweep(args.pointsPerDecade), args.opts);

  report::Figure fig("fig05", "Polling Method: Bandwidth (Portals)",
                     "poll_interval_iters", "bandwidth_MBps");
  fig.logX().paperExpectation(
      "plateau at max sustained bandwidth (~50-60 MB/s for >=50 KB, lower "
      "for 10 KB), then steep decline at large poll intervals; larger "
      "messages hold the plateau longer");

  std::vector<report::ShapeCheck> checks;
  std::vector<double> peak50KBplus;
  for (std::size_t i = 0; i < fam.sizes.size(); ++i) {
    auto s = makeSeries(
        sizeLabel(fam.sizes[i]), fam.xs, fam.results[i],
        [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
    checks.push_back(report::checkPlateauThenDecline(
        "bandwidth plateau then decline (" + s.name + ")", s.ys, 0.2, 0.5));
    if (fam.sizes[i] >= 50 * 1024)
      peak50KBplus.push_back(
          *std::max_element(s.ys.begin(), s.ys.end()));
    fig.addSeries(std::move(s));
  }
  // Portals plateau sits in the paper's 45-65 MB/s band for >= 50 KB.
  for (const double pk : peak50KBplus) {
    report::ShapeCheck c{"plateau in paper band (45-65 MB/s)",
                         pk >= 45.0 && pk <= 65.0,
                         strFormat("peak=%.1f MB/s", pk)};
    checks.push_back(std::move(c));
  }
  FigArchive archive("fig05_polling_bw_portals", args);
  archive.add("polling/portals", machine, fam);
  archive.write();
  return finishFigure(fig, checks, args);
}
