// Ablation — Portals per-fragment interrupt cost (coalescing).
//
// The paper attributes Portals' low availability to per-packet interrupts
// and kernel copies. Sweeping the per-fragment interrupt cost (as if the
// kernel coalesced interrupts, or the NIC batched packets) moves the
// bandwidth/availability trade-off: cheaper interrupts buy both more
// plateau bandwidth and more availability — quantifying how much of the
// GM/Portals gap is interrupt overhead rather than architecture.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args =
      parseFigArgs(argc, argv, "ablate_interrupt_cost",
                   "Portals bandwidth/availability vs per-fragment ISR cost");
  if (!args.parsedOk) return args.exitCode;

  report::Figure fig(
      "ablate_interrupt_cost",
      "Ablation: Portals Plateau vs Per-Fragment Interrupt Cost (100 KB)",
      "per_fragment_isr_us", "MBps_or_availability_x100");
  fig.paperExpectation(
      "cheaper interrupts raise plateau bandwidth and availability "
      "together; the paper's ~20 us regime is what caps Portals at "
      "~55 MB/s with ~5-10% availability");

  report::Series bw{"plateau_bandwidth_MBps", {}, {}};
  report::Series avail{"availability_x100_at_plateau", {}, {}};
  for (const double isrUs : {2.0, 5.0, 10.0, 20.0, 40.0}) {
    auto machine = backend::portalsMachine();
    machine.portals.nic.perFragRx = isrUs * 1e-6;
    auto base = presets::pollingBase(100_KB);
    base.pollInterval = 10'000;  // on the plateau
    const auto pt = runPoint(machine, base);
    bw.xs.push_back(isrUs);
    bw.ys.push_back(toMBps(pt.bandwidthBps));
    avail.xs.push_back(isrUs);
    avail.ys.push_back(100.0 * pt.availability);
  }

  std::vector<report::ShapeCheck> checks;
  checks.push_back(report::checkNearlyMonotone(
      "bandwidth falls as interrupts get more expensive", bw.ys,
      /*increasing=*/false, 1.0));
  checks.push_back(report::ShapeCheck{
      "cheap interrupts recover most of the GM gap",
      bw.ys.front() > 75.0,
      strFormat("bw at 2 us ISR = %.1f MB/s (GM ~87)", bw.ys.front())});
  checks.push_back(report::ShapeCheck{
      "paper regime (20 us) sits near the paper's plateau",
      bw.ys[3] > 45.0 && bw.ys[3] < 65.0,
      strFormat("bw at 20 us ISR = %.1f MB/s", bw.ys[3])});
  fig.addSeries(std::move(bw));
  fig.addSeries(std::move(avail));
  return finishFigure(fig, checks, args);
}
