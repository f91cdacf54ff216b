// Full COMB assessment of a system, reproducing the paper's §4 analysis
// workflow end to end:
//   1. polling sweep  -> peak bandwidth, availability plateau
//   2. PWW sweep      -> application-offload verdict, phase breakdown
//   3. PWW + MPI_Test -> library-call effect (progress-rule violation)
//
//   $ ./assess_overlap --machine gm
//   $ ./assess_overlap --machine portals --size 300
#include <algorithm>
#include <cstdio>

#include "backend/stacks.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

using namespace comb;
using namespace comb::units;

int main(int argc, char** argv) {
  ArgParser args("assess_overlap", "COMB overlap assessment of one machine");
  args.addOption("machine", backend::presetNames(), "gm");
  args.addOption("size", "message size in KB", "100");
  if (!args.parse(argc, argv)) return 0;

  backend::MachineConfig machine;
  try {
    machine = backend::presetMachine(args.str("machine"));
  } catch (const ConfigError& e) {
    std::fprintf(stderr, "assess_overlap: %s\n", e.what());
    return 2;
  }
  const Bytes msgBytes = static_cast<Bytes>(args.integer("size")) * 1024;

  std::printf("=== COMB assessment: machine '%s', %s messages ===\n\n",
              machine.name.c_str(), fmtBytes(msgBytes).c_str());

  // 1. Polling sweep: the unfettered view.
  const auto pollIntervals = bench::logSweep(10, 100'000'000, 2);
  const auto poll = bench::runSweep(
      machine,
      bench::sweepOver(bench::presets::pollingBase(msgBytes), pollIntervals));
  double peakBw = 0, bestAvailNearPeak = 0;
  for (const auto& p : poll) peakBw = std::max(peakBw, p.bandwidthBps);
  for (const auto& p : poll)
    if (p.bandwidthBps >= 0.85 * peakBw)
      bestAvailNearPeak = std::max(bestAvailNearPeak, p.availability);

  std::printf("[polling] peak bandwidth %.2f MB/s; best availability while "
              "within 85%% of peak: %.3f\n",
              toMBps(peakBw), bestAvailNearPeak);
  std::printf("[polling] => at full message rate the host keeps %.0f%% of "
              "its cycles\n\n",
              100.0 * bestAvailNearPeak);

  // 2. PWW at a long work interval: offload + overhead verdicts.
  auto pwwParams = bench::presets::pwwBase(msgBytes);
  pwwParams.workInterval = 5'000'000;  // ~20 ms, >> exchange time
  const auto pww = bench::runPoint(machine, pwwParams);

  TextTable phases({"phase", "duration", "note"});
  phases.setAlign(TextTable::Align::Left);
  phases.addRow({"post", fmtTime(pww.avgPostPerOp), "per non-blocking call"});
  phases.addRow({"work", fmtTime(pww.avgWork),
                 strFormat("dry: %s", fmtTime(pww.dryWork).c_str())});
  phases.addRow({"wait", fmtTime(pww.avgWaitPerMsg), "per message"});
  std::printf("[pww] phase breakdown at %s call-free work:\n%s\n",
              fmtTime(pww.dryWork).c_str(), phases.str().c_str());

  const bool offload = pww.avgWaitPerMsg < 0.05 * pww.dryWork;
  const double workInflation = pww.avgWork / pww.dryWork - 1.0;
  std::printf("[pww] application offload: %s (wait %s after %s of work)\n",
              offload ? "YES" : "NO", fmtTime(pww.avgWaitPerMsg).c_str(),
              fmtTime(pww.dryWork).c_str());
  std::printf("[pww] work-phase inflation: %.1f%% (%s communication "
              "overhead steals cycles)\n\n",
              100.0 * workInflation,
              workInflation > 0.02 ? "interrupt/copy" : "no");

  // 3. Library-call effect.
  auto testParams = pwwParams;
  testParams.testCallAtFraction = 0.1;
  const auto pwwTest = bench::runPoint(machine, testParams);
  const double waitDrop =
      pww.avgWaitPerMsg > 0
          ? 1.0 - pwwTest.avgWaitPerMsg / pww.avgWaitPerMsg
          : 0.0;
  std::printf("[pww+test] one MPI_Test early in the work phase cuts the "
              "wait by %.0f%% (%s -> %s)\n",
              100.0 * waitDrop, fmtTime(pww.avgWaitPerMsg).c_str(),
              fmtTime(pwwTest.avgWaitPerMsg).c_str());
  if (!offload && waitDrop > 0.5) {
    std::printf("[pww+test] => progress lives in the MPI library: the MPI "
                "progress rule is effectively violated (paper §4.3)\n");
  } else if (offload) {
    std::printf("[pww+test] => no call effect, as expected for a system "
                "that progresses autonomously\n");
  }
  return 0;
}
