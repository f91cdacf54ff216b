// Figure 16 — Polling and PWW methods: bandwidth vs availability, GM
// (100 KB).
//
// Paper: the Polling curve holds peak bandwidth across nearly the whole
// availability range; the PWW curve cannot — without application offload,
// restricting MPI calls (large work intervals = high availability) chokes
// bandwidth, so PWW bandwidth decays as availability rises.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig16",
      "Polling + PWW: bandwidth vs availability, GM (100 KB)");
  if (!args.parsedOk) return args.exitCode;

  const auto pollIntervals = presets::pollSweep(args.pointsPerDecade + 1);
  const auto workIntervals = presets::workSweep(args.pointsPerDecade + 1);
  const auto pollRuns = runSweepReps(
      backend::gmMachine(),
      sweepOver(presets::pollingBase(100_KB), pollIntervals),
      args.opts);
  const auto pwwRuns = runSweepReps(
      backend::gmMachine(),
      sweepOver(presets::pwwBase(100_KB), workIntervals), args.opts);
  const auto poll = canonicalPoints(pollRuns);
  const auto pww = canonicalPoints(pwwRuns);

  report::Figure fig("fig16",
                     "Polling and PWW: Bandwidth vs Availability (GM)",
                     "cpu_availability", "bandwidth_MBps");
  fig.paperExpectation(
      "Poll curve: ~88 MB/s out to availability ~0.95+; PWW curve: "
      "bandwidth decays with availability (no application offload)");

  auto pollS = makeParametricSeries(
      "Poll", poll, [](const PollingPoint& p) { return p.availability; },
      [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
  auto pwwS = makeParametricSeries(
      "PWW", pww, [](const PwwPoint& p) { return p.availability; },
      [](const PwwPoint& p) { return toMBps(p.bandwidthBps); });

  std::vector<report::ShapeCheck> checks;
  const double pollPeak = *std::max_element(pollS.ys.begin(), pollS.ys.end());
  checks.push_back(report::checkCoexists(
      "Poll: peak bandwidth at availability >= 0.9",
      std::vector<double>(pollS.xs.begin(), pollS.xs.end()), pollS.ys, 0.9,
      0.85 * pollPeak));
  {
    // PWW: at availability >= 0.7 bandwidth must have collapsed.
    double worst = 0.0;
    for (std::size_t i = 0; i < pwwS.xs.size(); ++i)
      if (pwwS.xs[i] >= 0.7) worst = std::max(worst, pwwS.ys[i]);
    checks.push_back(report::ShapeCheck{
        "PWW: bandwidth collapsed at high availability",
        worst < 0.5 * pollPeak,
        strFormat("max PWW bw at avail>=0.7: %.1f MB/s (poll peak %.1f)",
                  worst, pollPeak)});
  }
  fig.addSeries(std::move(pollS));
  fig.addSeries(std::move(pwwS));
  FigArchive archive("fig16_poll_vs_pww_gm", args);
  archive.add("polling/gm/100 KB", backend::gmMachine(),
              pollIntervals, pollRuns);
  archive.add("pww/gm/100 KB", backend::gmMachine(), workIntervals,
              pwwRuns);
  archive.write();
  return finishFigure(fig, checks, args);
}
