// Machine definition files: describe a machine model in a small INI-style
// text format instead of C++, so new systems can be assessed without
// recompiling the suite.
//
//   # my-cluster.ini
//   name = mynic
//   transport = portals   # gm | portals | progress_thread | rdma; or `stack`
//   [fabric]              # also [topology], [host], [fault], [noise]
//   link_rate_MBps = 90
//   [portals]             # the stack's section: [gm] | [portals] |
//   per_frag_rx_us = 20   #   [progress] | [rdma], each also taking the
//   max_retries    = 10   #   reliability keys ack_timeout_us, ack_bytes,
//   backoff        = 2    #   max_retries and backoff
//
// docs/machine_models.md lists every key (a stack's keys are its field
// walk in backend/stacks.cpp); machines/*.ini are complete examples.
// Unset keys keep the preset defaults; unknown keys or sections are hard
// errors (typos must not silently produce a different machine).
#pragma once

#include <istream>
#include <string>

#include "backend/machine.hpp"

namespace comb::backend {

/// Parse a machine definition; throws comb::ConfigError on any problem.
MachineConfig parseMachineFile(std::istream& in,
                               const std::string& sourceName = "<stream>");

/// Load from a filesystem path.
MachineConfig loadMachineFile(const std::string& path);

}  // namespace comb::backend
