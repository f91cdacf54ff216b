// Parameters for the MPI-semantics suites: every row of the stack table
// (backend/stacks), built from its first preset. MPI semantics must hold
// identically on every stack — stacks differ in timing and offload only.
#pragma once

#include <vector>

#include "backend/machine.hpp"
#include "backend/stacks.hpp"

namespace comb::backend {

inline std::vector<TransportKind> stackKinds() {
  std::vector<TransportKind> kinds;
  for (const StackRow& row : stacks()) kinds.push_back(row.kind);
  return kinds;
}

inline MachineConfig stackMachine(TransportKind kind) {
  return stackRow(kind).presets[0].make();
}

}  // namespace comb::backend
