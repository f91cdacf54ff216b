#include "comb/archive_build.hpp"

#include <algorithm>

namespace comb::bench {

report::Archive makeArchive(const std::string& bench, const RepPolicy& rep,
                            int simJobs, sim::AffinityPolicy affinity) {
  report::Archive archive;
  archive.bench = bench;
  archive.seed = rep.seed;
  archive.provenance = report::buildProvenance();
  archive.provenance.simJobs = simJobs;
  archive.provenance.simAffinity = sim::affinityPolicyName(affinity);
  // SimCluster always installs the topology-derived per-pair matrix when
  // the core is sharded; serial runs have no window bound at all and keep
  // the scalar default.
  archive.provenance.lookaheadSource = simJobs > 1 ? "matrix" : "global-min";
  archive.rep.adaptive = rep.adaptive;
  archive.rep.reps = rep.reps;
  archive.rep.minReps = rep.minReps;
  archive.rep.maxReps = rep.maxReps;
  archive.rep.ciTarget = rep.ciTarget;
  return archive;
}

report::ArchiveSweep beginSweep(report::Archive& archive,
                                const std::string& id,
                                const backend::MachineConfig& machine,
                                const std::string& xlabel) {
  archive.provenance.tailPercentiles = report::kTailPercentiles;
  // Stamp the transport stack so `comb compare` can warn about
  // cross-configuration comparisons; archives mixing stacks (the
  // taxonomy sweeps) become "mixed".
  const std::string stack = backend::transportKindName(machine.kind);
  if (archive.provenance.stack.empty()) {
    archive.provenance.stack = stack;
  } else if (archive.provenance.stack != stack) {
    archive.provenance.stack = "mixed";
  }
  // Sharded runs: record the certified scalar lookahead floor — the
  // machine's fabric link latency, which every matrix entry respects
  // (Executor::setLookaheadMatrix throws otherwise). Archives that mix
  // machines keep the minimum, the bound every sweep honored.
  if (archive.provenance.simJobs > 1) {
    const double floor = machine.fabric.link.latency;
    double& lookahead = archive.provenance.lookahead;
    lookahead = lookahead == 0.0 ? floor : std::min(lookahead, floor);
  }
  report::ArchiveSweep sweep;
  sweep.id = id;
  sweep.xlabel = xlabel;
  sweep.machine = machine.name;
  sweep.machineHash = backend::machineHash(machine);
  return sweep;
}

}  // namespace comb::bench
