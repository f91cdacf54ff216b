// Extension — SMP nodes with NIC interrupt steering (paper §7 future
// work: "we plan to address multi-processor nodes").
//
// With a second CPU per node and the Portals kernel work steered onto it,
// the application CPU stops paying for interrupts and copies: the polling
// method should then report near-GM availability at the (unchanged)
// Portals bandwidth plateau — quantifying how much of the Portals penalty
// is *placement* of the kernel work rather than its existence.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "ext_smp_steering",
      "Portals polling availability: uniprocessor vs SMP-steered");
  if (!args.parsedOk) return args.exitCode;

  auto uni = backend::portalsMachine();
  auto smp = backend::portalsMachine();
  smp.name = "portals-smp";
  smp.cpusPerNode = 2;
  smp.nicCpu = 1;  // kernel/NIC work on the second CPU

  const auto intervals = presets::pollSweep(args.pointsPerDecade);
  const auto spec = sweepOver(presets::pollingBase(100_KB), intervals);
  const auto uniRuns = runSweepReps(uni, spec, args.opts);
  const auto smpRuns = runSweepReps(smp, spec, args.opts);
  const auto uniPts = canonicalPoints(uniRuns);
  const auto smpPts = canonicalPoints(smpRuns);

  report::Figure fig("ext_smp_steering",
                     "Extension: SMP Interrupt Steering (Portals, 100 KB)",
                     "poll_interval_iters", "availability_or_MBps");
  fig.logX().paperExpectation(
      "steering kernel work to a second CPU restores application-CPU "
      "availability without losing the bandwidth plateau (paper future "
      "work, answered)");

  auto uniAvail = makeSeries("uni_avail", intervals, uniPts,
                             [](const PollingPoint& p) { return p.availability; });
  auto smpAvail = makeSeries("smp_avail", intervals, smpPts,
                             [](const PollingPoint& p) { return p.availability; });
  auto uniBw = makeSeries(
      "uni_bw_MBps", intervals, uniPts,
      [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
  auto smpBw = makeSeries(
      "smp_bw_MBps", intervals, smpPts,
      [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });

  // Metric: best availability at any sweep point still delivering >= 85%
  // of that machine's peak bandwidth ("availability while at full rate").
  auto availAtRate = [](const std::vector<PollingPoint>& pts) {
    double peak = 0;
    for (const auto& p : pts) peak = std::max(peak, p.bandwidthBps);
    double best = 0;
    for (const auto& p : pts)
      if (p.bandwidthBps >= 0.85 * peak) best = std::max(best, p.availability);
    return best;
  };
  const double uniAtRate = availAtRate(uniPts);
  const double smpAtRate = availAtRate(smpPts);

  std::vector<report::ShapeCheck> checks;
  checks.push_back(report::ShapeCheck{
      "uniprocessor availability collapses at full rate", uniAtRate < 0.3,
      strFormat("avail=%.3f", uniAtRate)});
  checks.push_back(report::ShapeCheck{
      "steered availability stays high at full rate", smpAtRate > 0.75,
      strFormat("avail=%.3f", smpAtRate)});
  checks.push_back(report::checkPeakRatio(
      "bandwidth plateau preserved (within ~15%)", smpBw.ys, uniBw.ys, 0.85,
      1.25));
  fig.addSeries(std::move(uniAvail));
  fig.addSeries(std::move(smpAvail));
  fig.addSeries(std::move(uniBw));
  fig.addSeries(std::move(smpBw));
  FigArchive archive("ext_smp_steering", args);
  archive.add("polling/portals/100 KB", uni, intervals, uniRuns);
  archive.add("polling/portals-smp/100 KB", smp, intervals, smpRuns);
  archive.write();
  return finishFigure(fig, checks, args);
}
