// Seeded workload generator for the host-cost benchmark.
//
// A workload is a closed batch of measurement points run one after
// another. The seed generates every parameter list; the simulator only
// ever sees the generated machine definition text (parsed per point, as a
// user's machine file would be) and the method parameters.
//
// Swept values are drawn by stratified sampling: point i of a family of n
// draws from the middle of the i-th of n equal slices of the range. Each
// seed gives different inputs, but every seed covers the range evenly, so
// the cost of a run does not hinge on where a few draws happened to land.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "comb/congestion.hpp"
#include "comb/params.hpp"

namespace perfbench {

enum class Method { Polling, Pww, Congestion };

/// Everything one measurement point hands to the simulator.
struct PointSpec {
  /// Archive sweep id (method/stack/size or pattern); points of one
  /// family share a machine model and differ in the swept value `x`.
  std::string family;
  Method method = Method::Polling;
  std::string machineText;  ///< machine definition file contents
  int nodes = 2;
  int simJobs = 1;
  std::uint64_t x = 0;  ///< swept-axis value (poll/work interval, nodes)
  comb::bench::PollingParams polling;
  comb::bench::PwwParams pww;
  comb::bench::CongestionParams congestion;
};

struct Workload {
  std::string name;
  std::string why;
  std::vector<PointSpec> points;
};

const std::vector<std::string>& workloadNames();

/// Throws comb::ConfigError for an unknown workload name.
Workload makeWorkload(const std::string& name, std::uint64_t seed);

/// One line per point: the inputs the seed generated.
void printInputs(std::ostream& out, const Workload& w);

}  // namespace perfbench
