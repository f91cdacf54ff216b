// Design-space exploration: what would it take for a kernel-based stack
// to match OS-bypass?
//
// COMB as a design tool: sweep the two dominant cost knobs of the
// Portals-style stack — per-fragment interrupt cost and kernel copy
// bandwidth — and print the (bandwidth, availability-at-full-rate) grid
// next to the GM reference. The paper's §4 explains the two systems; this
// example interpolates the space between them.
//
//   $ ./design_space
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

struct CellResult {
  double bandwidthMBps = 0;
  double availability = 0;
};

CellResult evaluate(double isrUs, double copyMBps) {
  auto machine = backend::portalsMachine();
  machine.portals.nic.perFragRx = isrUs * 1e-6;
  machine.portals.nic.perFragTx = isrUs * 0.45e-6;  // tx ~45% of rx cost
  machine.portals.nic.kernelCopyRate = copyMBps * 1e6;
  auto params = bench::presets::pollingBase(100_KB);
  params.pollInterval = 20'000;  // the plateau operating point
  const auto pt = bench::runPoint(machine, params);
  return CellResult{toMBps(pt.bandwidthBps), pt.availability};
}

}  // namespace

int main() {
  const std::vector<double> isrCosts{20.0, 10.0, 5.0, 2.0};   // us/fragment
  const std::vector<double> copyRates{280, 560, 1120};        // MB/s

  std::printf("Portals-style design space, 100 KB messages, plateau "
              "operating point.\nCell: bandwidth MB/s (availability)\n\n");
  TextTable table([&] {
    std::vector<std::string> hdr{"isr_us \\ copy_MBps"};
    for (const double c : copyRates) hdr.push_back(strFormat("%.0f", c));
    return hdr;
  }());
  for (const double isr : isrCosts) {
    std::vector<std::string> row{strFormat("%.0f", isr)};
    for (const double copy : copyRates) {
      const auto cell = evaluate(isr, copy);
      row.push_back(strFormat("%.1f (%.2f)", cell.bandwidthMBps,
                              cell.availability));
    }
    table.addRow(std::move(row));
  }
  std::fputs(table.str().c_str(), stdout);

  // GM reference point.
  auto gmParams = bench::presets::pollingBase(100_KB);
  gmParams.pollInterval = 20'000;
  const auto gm = bench::runPoint(backend::gmMachine(), gmParams);
  std::printf("\nGM (OS-bypass) reference: %.1f MB/s (%.2f)\n",
              toMBps(gm.bandwidthBps), gm.availability);
  std::printf(
      "\nreading: the paper's Portals sits at the top-left corner; cheap\n"
      "interrupts buy bandwidth, but availability at full rate only\n"
      "approaches GM once the per-byte host cost (copies) also falls —\n"
      "or the kernel work moves to another CPU entirely (see\n"
      "bench/ext_smp_steering).\n");
  return 0;
}
