// Assessing a hypothetical machine: build your own MachineConfig.
//
// The scenario: you are evaluating a next-generation kernel-based NIC
// that keeps the Portals programming model (application offload) but adds
// interrupt coalescing (cheap per-fragment interrupts) and a faster copy
// engine. How close does it get to OS-bypass GM? COMB answers without
// hardware.
//
//   $ ./custom_machine
#include <cstdio>

#include "backend/machine.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

using namespace comb;
using namespace comb::units;

namespace {

backend::MachineConfig hypotheticalNic() {
  auto machine = backend::portalsMachine();
  machine.name = "portals-ng";
  // Interrupt coalescing: one interrupt per 4 fragments, amortized.
  machine.portals.nic.perFragRx = 5e-6;
  machine.portals.nic.perFragTx = 3e-6;
  // A DMA-assisted copy engine.
  machine.portals.nic.kernelCopyRate = 900e6;
  machine.portals.unexpectedCopyRate = 900e6;
  // Leaner post path (doorbell instead of full syscall descriptor work).
  machine.portals.postSyscall = 5e-6;
  machine.portals.postKernel = 20e-6;
  return machine;
}

struct Row {
  std::string name;
  double peakBw = 0;
  double availAtFullRate = 0;
  double pwwWaitUs = 0;
  bool offload = false;
};

Row assess(const backend::MachineConfig& machine) {
  Row row;
  row.name = machine.name;

  auto polling = bench::presets::pollingBase(100_KB);
  polling.pollInterval = 20'000;
  const auto poll = bench::runPoint(machine, polling);
  row.peakBw = toMBps(poll.bandwidthBps);
  row.availAtFullRate = poll.availability;

  auto pww = bench::presets::pwwBase(100_KB);
  pww.workInterval = 5'000'000;
  const auto cycle = bench::runPoint(machine, pww);
  row.pwwWaitUs = cycle.avgWaitPerMsg * 1e6;
  row.offload = cycle.avgWaitPerMsg < 0.05 * cycle.dryWork;
  return row;
}

}  // namespace

int main() {
  TextTable table({"machine", "plateau_MBps", "avail_at_rate", "pww_wait_us",
                   "app_offload"});
  for (const auto& machine : {backend::gmMachine(), backend::portalsMachine(),
                              hypotheticalNic()}) {
    const Row r = assess(machine);
    table.addRow({r.name, strFormat("%.1f", r.peakBw),
                  strFormat("%.3f", r.availAtFullRate),
                  strFormat("%.1f", r.pwwWaitUs), r.offload ? "yes" : "no"});
  }
  std::printf("COMB assessment of a hypothetical coalescing NIC against the "
              "paper's two systems:\n\n%s\n",
              table.str().c_str());
  std::printf("the hypothetical design keeps Portals' application offload "
              "(wait ~0)\nwhile recovering most of GM's bandwidth and "
              "availability — the design\npoint the paper's analysis "
              "motivates.\n");
  return 0;
}
