// Ablation — GM eager/rendezvous threshold.
//
// The paper's Fig 14 anomaly (10 KB bandwidth only at reduced
// availability) comes from the eager protocol's ~45 us host-side send
// copy below the 16 KB threshold. Sweeping the threshold moves the
// anomaly: with the threshold below 10 KB, the 10 KB messages take the
// rendezvous path and regain availability at peak bandwidth; with a huge
// threshold, even 100 KB messages pay host copies and lose availability.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

namespace {

// Peak-bandwidth availability: availability of the sweep point with the
// highest bandwidth.
double availAtPeak(const std::vector<PollingPoint>& pts) {
  double bestBw = -1, avail = 0;
  for (const auto& p : pts) {
    if (p.bandwidthBps > bestBw) {
      bestBw = p.bandwidthBps;
      avail = p.availability;
    }
  }
  return avail;
}

}  // namespace

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(argc, argv, "ablate_eager_threshold",
                                    "GM eager threshold vs availability");
  if (!args.parsedOk) return args.exitCode;

  const auto intervals = logSweep(1'000, 3'000'000, 2);
  report::Figure fig(
      "ablate_eager_threshold",
      "Ablation: GM Availability at Peak Bandwidth vs Eager Threshold",
      "eager_threshold_KB", "availability_at_peak_bw");
  fig.paperExpectation(
      "messages below the threshold (eager, host-copied) reach peak "
      "bandwidth only at reduced availability; above it (rendezvous, NIC "
      "DMA) availability at peak is high");

  std::vector<report::ShapeCheck> checks;
  for (const Bytes msg : {10_KB, 100_KB}) {
    report::Series s;
    s.name = fmtBytes(msg) + " msgs";
    for (const Bytes thr : {2_KB, 8_KB, 16_KB, 64_KB, 512_KB}) {
      auto machine = backend::gmMachine();
      machine.gm.eagerThreshold = thr;
      auto base = presets::pollingBase(msg);
      const auto pts = runSweep(machine, sweepOver(base, intervals),
                                args.opts);
      s.xs.push_back(static_cast<double>(thr) / 1024.0);
      s.ys.push_back(availAtPeak(pts));
    }
    fig.addSeries(s);
    // Below-threshold points must show availability clearly lower than
    // above-threshold points.
    const double eagerSide = s.ys.back();   // thr = 512 KB: always eager
    const double rndvSide = s.ys.front();   // thr = 2 KB: always rendezvous
    checks.push_back(report::ShapeCheck{
        "rendezvous regime beats eager regime on availability (" + s.name +
            ")",
        rndvSide > eagerSide + 0.1,
        strFormat("rndv=%.2f eager=%.2f", rndvSide, eagerSide)});
  }
  return finishFigure(fig, checks, args);
}
