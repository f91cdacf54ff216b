// The stack table. COMB holds the hardware fixed and swaps only the
// software stack; a row is everything the suite knows about one stack:
// name, presets (the first is what `transport = <name>` starts from),
// machine-file section (also the signature prefix), one field walk that
// both the machine-file parser and machineSignature call, and endpoint
// factory. Adding a stack is one transport file plus one row.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "backend/machine.hpp"
#include "host/cpu.hpp"
#include "net/fabric.hpp"
#include "sim/shard_context.hpp"
#include "transport/endpoint.hpp"
#include "transport/reliability.hpp"

namespace comb::backend {

/// A two-way setting spelled as a word in the machine file and signature.
struct StackChoice {
  bool* flag;
  const char* whenTrue;
  const char* whenFalse;

  const char* name(bool b) const { return b ? whenTrue : whenFalse; }
};

/// One config field: machine-file key (nullptr = signature only), key
/// after the signature's "<section>." prefix, the member, and the model
/// units per file unit (1e-6 for a `_us` key).
struct StackField {
  const char* fileKey;
  const char* sigKey;
  std::variant<double*, Bytes*, int*, StackChoice> member;
  double scale = 1.0;

  /// The value as the signature prints it (doubles round-trip exactly).
  std::string text() const;
};

struct StackPreset {
  const char* name;
  MachineConfig (*make)();
};

/// What a factory wires one node's endpoint to.
struct EndpointSite {
  sim::ShardContext& sim;
  host::Cpu& appCpu;
  host::Cpu& nicCpu;
  net::Fabric& fabric;
  net::NodeId node;
  const MachineConfig& cfg;
};

struct StackRow {
  TransportKind kind;
  const char* name;
  std::span<const StackPreset> presets;
  const char* section;
  /// The field walk, in signature order: pointers into `m`.
  std::vector<StackField> (*fields)(MachineConfig& m);
  transport::ReliabilityConfig& (*rel)(MachineConfig& m);
  /// Optional hooks (nullptr: none): a machine-file step run before the
  /// [host] keys, so those still win; why a CPU shape cannot host the
  /// stack (nullptr when it can).
  void (*place)(MachineConfig& m);
  const char* (*shapeError)(const MachineConfig& m);
  std::unique_ptr<transport::Endpoint> (*makeEndpoint)(const EndpointSite&);
};

/// Every row, in TransportKind order.
std::span<const StackRow> stacks();
const StackRow& stackRow(TransportKind k);

/// The preset named `name`; a ConfigError naming every preset otherwise.
MachineConfig presetMachine(std::string_view name);
/// "gm | portals | ...": every preset name, in row order.
std::string presetNames();

}  // namespace comb::backend
