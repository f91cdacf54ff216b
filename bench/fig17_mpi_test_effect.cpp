// Figure 17 — Polling, PWW and PWW+MPI_Test: bandwidth vs availability,
// GM (100 KB).
//
// Paper §4.3: inserting ONE MPI_Test() early in the PWW work phase lets
// the library-driven GM stack progress the rendezvous during the work
// phase, extending sustained bandwidth into much higher availabilities —
// direct evidence that MPICH/GM needs library calls to move data (an MPI
// progress-rule violation).
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig17",
      "Polling + PWW + PWW-with-MPI_Test: bandwidth vs availability, GM");
  if (!args.parsedOk) return args.exitCode;

  const auto pollIntervals = presets::pollSweep(args.pointsPerDecade + 1);
  const auto pollRuns = runSweepReps(
      backend::gmMachine(),
      sweepOver(presets::pollingBase(100_KB), pollIntervals),
      args.opts);
  const auto workIntervals = presets::workSweep(args.pointsPerDecade + 1);
  const auto pwwRuns =
      runSweepReps(backend::gmMachine(),
                   sweepOver(presets::pwwBase(100_KB), workIntervals),
                   args.opts);
  auto testBase = presets::pwwBase(100_KB);
  testBase.testCallAtFraction = 0.1;  // one MPI_Test early in the work phase
  const auto pwwTestRuns = runSweepReps(backend::gmMachine(),
                                        sweepOver(testBase, workIntervals),
                                        args.opts);
  const auto poll = canonicalPoints(pollRuns);
  const auto pww = canonicalPoints(pwwRuns);
  const auto pwwTest = canonicalPoints(pwwTestRuns);

  report::Figure fig(
      "fig17", "Polling and Modified PWW: Bandwidth vs Availability (GM)",
      "cpu_availability", "bandwidth_MBps");
  fig.paperExpectation(
      "the added library call extends PWW's sustained bandwidth toward "
      "the Poll curve's high-availability region");

  auto pollS = makeParametricSeries(
      "Poll", poll, [](const PollingPoint& p) { return p.availability; },
      [](const PollingPoint& p) { return toMBps(p.bandwidthBps); });
  auto pwwS = makeParametricSeries(
      "PWW", pww, [](const PwwPoint& p) { return p.availability; },
      [](const PwwPoint& p) { return toMBps(p.bandwidthBps); });
  auto pwwTestS = makeParametricSeries(
      "PWW + Test", pwwTest, [](const PwwPoint& p) { return p.availability; },
      [](const PwwPoint& p) { return toMBps(p.bandwidthBps); });

  std::vector<report::ShapeCheck> checks;
  // The paper's claim: the added call "extend[s] the maximum sustained
  // bandwidth into higher CPU availabilities". Measure the highest
  // availability at which each PWW variant still sustains >= 50% of the
  // poll peak; the Test variant must push it substantially further right.
  const double pollPeak = *std::max_element(pollS.ys.begin(), pollS.ys.end());
  auto sustainedUpTo = [&](const report::Series& s) {
    double best = 0.0;
    for (std::size_t i = 0; i < s.xs.size(); ++i)
      if (s.ys[i] >= 0.5 * pollPeak) best = std::max(best, s.xs[i]);
    return best;
  };
  const double plainReach = sustainedUpTo(pwwS);
  const double testReach = sustainedUpTo(pwwTestS);
  checks.push_back(report::ShapeCheck{
      "MPI_Test extends sustained bandwidth to higher availability",
      testReach >= plainReach + 0.2,
      strFormat("half-peak sustained to avail %.2f (plain) vs %.2f (+Test)",
                plainReach, testReach)});
  // PWW+Test should sustain high bandwidth at high availability.
  checks.push_back(report::checkCoexists(
      "PWW+Test: >=60% of poll peak at availability >= 0.8",
      std::vector<double>(pwwTestS.xs.begin(), pwwTestS.xs.end()),
      pwwTestS.ys, 0.8, 0.6 * pollPeak));
  fig.addSeries(std::move(pollS));
  fig.addSeries(std::move(pwwTestS));
  fig.addSeries(std::move(pwwS));
  FigArchive archive("fig17_mpi_test_effect", args);
  archive.add("polling/gm/100 KB", backend::gmMachine(),
              pollIntervals, pollRuns);
  archive.add("pww/gm/100 KB", backend::gmMachine(), workIntervals,
              pwwRuns);
  archive.add("pww+test/gm/100 KB", backend::gmMachine(), workIntervals,
              pwwTestRuns);
  archive.write();
  return finishFigure(fig, checks, args);
}
