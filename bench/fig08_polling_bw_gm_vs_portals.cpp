// Figure 8 — Polling method: bandwidth, GM vs Portals (100 KB).
//
// Paper: GM (OS-bypass, no interrupts, no kernel copies) sustains
// ~88 MB/s; kernel-based Portals is capped near ~55 MB/s by per-packet
// interrupts and kernel-buffer copies on the same hardware.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args =
      parseFigArgs(argc, argv, "fig08",
                   "Polling method: bandwidth, GM vs Portals (100 KB)");
  if (!args.parsedOk) return args.exitCode;

  const auto intervals = presets::pollSweep(args.pointsPerDecade);
  const auto spec = sweepOver(presets::pollingBase(100_KB), intervals);
  const auto gmRuns =
      runSweepReps(backend::gmMachine(), spec, args.opts);
  const auto portalsRuns =
      runSweepReps(backend::portalsMachine(), spec, args.opts);
  const auto gm = canonicalPoints(gmRuns);
  const auto portals = canonicalPoints(portalsRuns);

  report::Figure fig("fig08", "Polling Method: Bandwidth, GM vs Portals",
                     "poll_interval_iters", "bandwidth_MBps");
  fig.logX().paperExpectation(
      "GM plateau ~88 MB/s, Portals ~50-60 MB/s; GM wins ~1.5-1.8x at the "
      "plateau; both decline at large poll intervals");

  auto gmSeries = makeSeries(
      "GM", intervals, gm,
      [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
  auto ptlSeries = makeSeries(
      "Portals", intervals, portals,
      [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });

  std::vector<report::ShapeCheck> checks;
  checks.push_back(report::checkPeakRatio("GM beats Portals by ~1.4-1.9x",
                                          gmSeries.ys, ptlSeries.ys, 1.3,
                                          2.0));
  checks.push_back(report::checkPlateauThenDecline("GM plateau then decline",
                                                   gmSeries.ys, 0.2, 0.5));
  checks.push_back(report::checkPlateauThenDecline(
      "Portals plateau then decline", ptlSeries.ys, 0.2, 0.5));
  {
    const double gmPeak =
        *std::max_element(gmSeries.ys.begin(), gmSeries.ys.end());
    checks.push_back(report::ShapeCheck{
        "GM peak in paper band (80-95 MB/s)", gmPeak >= 80.0 && gmPeak <= 95.0,
        strFormat("peak=%.1f MB/s", gmPeak)});
  }
  fig.addSeries(std::move(gmSeries));
  fig.addSeries(std::move(ptlSeries));
  FigArchive archive("fig08_polling_bw_gm_vs_portals", args);
  archive.add("polling/gm/100 KB", backend::gmMachine(), intervals,
              gmRuns);
  archive.add("polling/portals/100 KB", backend::portalsMachine(),
              intervals, portalsRuns);
  archive.write();
  return finishFigure(fig, checks, args);
}
