// Calibration utility: prints the raw COMB measurements for both machine
// models at a few key operating points, so model parameters can be
// compared against the paper's numbers directly.
//
// Not a figure bench — a tool for validating/tuning the presets.
#include <cstdio>

#include "backend/machine.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/cli.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

using namespace comb;
using namespace comb::units;

namespace {

void pollingTable(const backend::MachineConfig& m, Bytes msgBytes) {
  std::printf("-- polling, %s, %s --\n", m.name.c_str(),
              fmtBytes(msgBytes).c_str());
  TextTable t({"poll_interval", "bandwidth_MBps", "availability", "msgs",
               "polls"});
  for (const std::uint64_t interval :
       {10ull, 1000ull, 100'000ull, 1'000'000ull, 10'000'000ull,
        100'000'000ull}) {
    auto base = bench::presets::pollingBase(msgBytes);
    base.pollInterval = interval;
    const auto pt = bench::runPoint(m, base);
    t.addRow({strFormat("%llu", (unsigned long long)pt.pollInterval),
              strFormat("%.2f", toMBps(pt.bandwidthBps)),
              strFormat("%.3f", pt.availability),
              strFormat("%llu", (unsigned long long)pt.messagesReceived),
              strFormat("%llu", (unsigned long long)pt.pollsExecuted)});
  }
  std::puts(t.str().c_str());
}

void pwwTable(const backend::MachineConfig& m, Bytes msgBytes) {
  std::printf("-- pww, %s, %s --\n", m.name.c_str(),
              fmtBytes(msgBytes).c_str());
  TextTable t({"work_interval", "bandwidth_MBps", "availability", "post_us",
               "work_us", "wait_us", "dry_us"});
  for (const std::uint64_t interval :
       {10'000ull, 100'000ull, 1'000'000ull, 10'000'000ull}) {
    auto base = bench::presets::pwwBase(msgBytes);
    base.workInterval = interval;
    const auto pt = bench::runPoint(m, base);
    t.addRow({strFormat("%llu", (unsigned long long)pt.workInterval),
              strFormat("%.2f", toMBps(pt.bandwidthBps)),
              strFormat("%.3f", pt.availability),
              strFormat("%.1f", pt.avgPost * 1e6),
              strFormat("%.1f", pt.avgWork * 1e6),
              strFormat("%.1f", pt.avgWait * 1e6),
              strFormat("%.1f", pt.dryWork * 1e6)});
  }
  std::puts(t.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("calibrate", "raw COMB measurements for model calibration");
  args.addOption("size", "message size in KB", "100");
  if (!args.parse(argc, argv)) return 0;
  const Bytes msgBytes = static_cast<Bytes>(args.integer("size")) * 1024;

  for (const auto& machine :
       {backend::gmMachine(), backend::portalsMachine()}) {
    pollingTable(machine, msgBytes);
    pwwTable(machine, msgBytes);
  }
  return 0;
}
