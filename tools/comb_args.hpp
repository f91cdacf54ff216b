// The `comb` CLI's argument parser and machine selection, shared by the
// front end (comb_cli.cpp) and its tests.
#pragma once

#include <string>

#include "backend/machine.hpp"
#include "backend/machine_file.hpp"
#include "backend/stacks.hpp"
#include "comb/runner.hpp"
#include "common/cli.hpp"

namespace comb::cli {

/// Every `comb <method>` option: the shared run options (addRunOptions)
/// plus the machine, workload, compare, hist, stats and trace knobs.
inline ArgParser makeParser(const std::string& method) {
  ArgParser args("comb " + method, "COMB benchmark suite");
  bench::addRunOptions(args);
  args.addOption("machine", backend::presetNames(), "gm");
  args.addOption("machine-file", "load a machine definition file (.ini)", "");
  args.addOption("size-kb", "message size in KB", "100");
  args.addOption("cpus", "CPUs per node (SMP extension)", "1");
  args.addOption("nic-cpu", "CPU servicing NIC kernel work", "0");
  args.addFlag("sweep", "sweep the primary variable over the paper range");
  args.addOption("interval", "polling interval (loop iterations)", "10000");
  args.addOption("work", "PWW work interval (loop iterations)", "1000000");
  args.addOption("queue", "polling queue depth", "8");
  args.addOption("batch", "PWW batch size", "1");
  args.addOption("test-at", "insert MPI_Test at this work fraction (-1=off)",
                 "-1");
  args.addOption("tolerance",
                 "compare: relative delta below which changes are ignored",
                 "0.02");
  args.addOption("alpha", "compare: Mann-Whitney significance level",
                 "0.05");
  args.addFlag("all", "compare: print every compared row, not just flagged");
  args.addOption("metric-class",
                 "compare: gate only this metric class (all | mean | tail)",
                 "all");
  args.addOption("metric",
                 "hist: exact latency-instrument name to plot (default: "
                 "the merged mpi send/recv families)",
                 "");
  args.addFlag("density",
               "hist: plot per-bucket sample counts instead of the CDF");
  args.addFlag("trace", "stats: also dump the substrate event trace");
  args.addOption("trace-rows", "stats: trace rows to print", "40");
  args.addOption("method", "trace: workload to trace (polling | pww)", "pww");
  args.addOption("out", "trace: write Chrome trace JSON to FILE", "");
  args.addFlag("summary",
               "trace: print per-category counts and the longest spans");
  args.addOption("top", "trace: spans to show with --summary", "10");
  args.addFlag("stats-json",
               "trace: dump the machine-stats/metrics snapshot as JSON");
  return args;
}

/// The machine a command runs: the --machine preset (with explicit --cpus
/// / --nic-cpu applied) or the --machine-file, with the run options'
/// --fault / --noise overrides folded in, so an archive hashes the model
/// that actually ran.
inline backend::MachineConfig machineFrom(const ArgParser& args,
                                          const bench::RunOptions& opts) {
  backend::MachineConfig m;
  if (const std::string file = args.str("machine-file"); !file.empty()) {
    m = backend::loadMachineFile(file);
  } else {
    m = backend::presetMachine(args.str("machine"));
    // Presets pick their own CPU shape (progress_thread needs a second
    // core); only explicit --cpus / --nic-cpu override it.
    if (args.given("cpus"))
      m.cpusPerNode = static_cast<int>(args.integer("cpus"));
    if (args.given("nic-cpu"))
      m.nicCpu = static_cast<int>(args.integer("nic-cpu"));
  }
  return bench::machineWithOptions(m, opts);
}

}  // namespace comb::cli
