// Quickstart: measure MPI/computation overlap on a simulated GM machine.
//
//   $ ./quickstart
//
// Runs one polling-method point and one PWW point on the bundled GM
// (OS-bypass Myrinet) machine model and prints what COMB tells you about
// the system.
#include <cstdio>

#include "backend/machine.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/string_util.hpp"
#include "common/units.hpp"

using namespace comb;
using namespace comb::units;

int main() {
  const auto machine = backend::gmMachine();

  // Polling method: 100 KB messages, poll every 50k work-loop iterations.
  auto polling = bench::presets::pollingBase(100_KB);
  polling.pollInterval = 50'000;
  const auto poll = bench::runPoint(machine, polling);

  // PWW method: same size, 1M iterations (~4 ms) of call-free work.
  auto pww = bench::presets::pwwBase(100_KB);
  pww.workInterval = 1'000'000;
  const auto cycle = bench::runPoint(machine, pww);

  std::printf("COMB quickstart on machine '%s'\n\n", machine.name.c_str());
  std::printf("polling method (poll every %llu iters):\n",
              static_cast<unsigned long long>(poll.pollInterval));
  std::printf("  bandwidth        %7.2f MB/s\n", toMBps(poll.bandwidthBps));
  std::printf("  CPU availability %7.3f\n", poll.availability);
  std::printf("  messages moved   %7llu\n\n",
              static_cast<unsigned long long>(poll.messagesReceived));

  std::printf("post-work-wait method (work %llu iters = %s):\n",
              static_cast<unsigned long long>(cycle.workInterval),
              fmtTime(cycle.dryWork).c_str());
  std::printf("  post  %9s per op\n", fmtTime(cycle.avgPostPerOp).c_str());
  std::printf("  work  %9s (dry: %s)\n", fmtTime(cycle.avgWork).c_str(),
              fmtTime(cycle.dryWork).c_str());
  std::printf("  wait  %9s per message\n",
              fmtTime(cycle.avgWaitPerMsg).c_str());
  std::printf("  bandwidth %6.2f MB/s, availability %.3f\n\n",
              toMBps(cycle.bandwidthBps), cycle.availability);

  const bool offload = cycle.avgWaitPerMsg < 0.1 * cycle.dryWork;
  std::printf("verdict: with a work phase ~%s long, the wait phase is %s —\n"
              "this system %s application offload.\n",
              fmtTime(cycle.dryWork).c_str(),
              fmtTime(cycle.avgWaitPerMsg).c_str(),
              offload ? "exhibits" : "does NOT exhibit");
  return 0;
}
