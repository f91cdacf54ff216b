#include "comb/analysis.hpp"

#include <algorithm>
#include <sstream>

#include "comb/presets.hpp"
#include "common/string_util.hpp"

namespace comb::bench {

OverlapAssessment assessMachine(const backend::MachineConfig& machine,
                                const AssessOptions& options) {
  OverlapAssessment a;
  a.machineName = machine.name;
  a.msgBytes = options.msgBytes;

  // Polling sweep: find the bandwidth/availability frontier.
  RunOptions opts;
  opts.jobs = options.jobs;
  opts.simJobs = options.simJobs;
  opts.simAffinity = options.simAffinity;

  // Conventional ping-pong.
  LatencyParams lat;
  lat.msgBytes = options.msgBytes;
  a.pingPong = runPoint(machine, lat, coreOptions(opts));
  const auto sweep =
      runSweep(machine,
               sweepOver(presets::pollingBase(options.msgBytes),
                         presets::pollSweep(options.pointsPerDecade)),
               opts);
  for (const auto& p : sweep)
    a.peakBandwidthBps = std::max(a.peakBandwidthBps, p.bandwidthBps);
  for (const auto& p : sweep)
    if (p.bandwidthBps >= 0.85 * a.peakBandwidthBps)
      a.availabilityAtFullRate =
          std::max(a.availabilityAtFullRate, p.availability);

  // PWW offload probe, with and without the inserted call.
  auto pww = presets::pwwBase(options.msgBytes);
  pww.workInterval = options.longWorkInterval;
  a.longWork = runPoint(machine, pww, coreOptions(opts));
  auto pwwTest = pww;
  pwwTest.testCallAtFraction = options.testCallAtFraction;
  a.longWorkWithTest = runPoint(machine, pwwTest, coreOptions(opts));

  a.applicationOffload = a.longWork.avgWaitPerMsg < 0.05 * a.longWork.dryWork;
  a.workInflation =
      a.longWork.dryWork > 0 ? a.longWork.avgWork / a.longWork.dryWork - 1.0
                             : 0.0;
  a.libraryDrivenProgress =
      !a.applicationOffload &&
      a.longWorkWithTest.avgWaitPerMsg < 0.5 * a.longWork.avgWaitPerMsg;
  return a;
}

std::string OverlapAssessment::verdictText() const {
  std::ostringstream os;
  os << strFormat("  latency (half round trip)   %s\n",
                  fmtTime(pingPong.halfRoundTripAvg).c_str());
  os << strFormat("  peak polling bandwidth      %.2f MB/s\n",
                  toMBps(peakBandwidthBps));
  os << strFormat("  availability at full rate   %.3f\n",
                  availabilityAtFullRate);
  os << strFormat("  PWW wait after long work    %s/msg\n",
                  fmtTime(longWork.avgWaitPerMsg).c_str());
  os << strFormat("  ... with one MPI_Test       %s/msg\n",
                  fmtTime(longWorkWithTest.avgWaitPerMsg).c_str());
  os << strFormat("  work-phase inflation        %.1f%%\n",
                  100.0 * workInflation);
  os << strFormat("\n  application offload: %s\n",
                  applicationOffload ? "YES" : "NO");
  if (libraryDrivenProgress) {
    os << "  progress is library-driven: communication advances only "
          "inside MPI calls\n  (the paper's §4.3 MPI progress-rule "
          "violation)\n";
  }
  if (applicationOffload && workInflation > 0.02) {
    os << strFormat(
        "  offload is paid for on the host: the work phase stretches "
        "%.0f%% while\n  messages flow (interrupts/kernel copies)\n",
        100.0 * workInflation);
  }
  if (applicationOffload && workInflation <= 0.02) {
    os << "  overlap is free: messaging progresses with no measurable "
          "work-phase cost\n";
  }
  return os.str();
}

}  // namespace comb::bench
