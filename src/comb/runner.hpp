// Runners: execute one COMB measurement (or a sweep) on a simulated
// machine. Each point runs on a freshly built two-node cluster so sweep
// points are independent and bit-reproducible.
//
// That per-point isolation is what makes the parallel sweep executor
// safe: `runSweepParallel` fans points out across a host thread pool and
// is guaranteed to return results bit-identical to the serial path — the
// simulator is deterministic and no state is shared between points (the
// only process-global facility the workers touch, the logger, is
// thread-safe; see common/log.hpp). The same holds under fault
// injection: each link's fault stream is seeded from (spec.seed, link
// name), never from global RNG state.
//
// The sweep API: a SweepSpec<Param> names the base parameter set and the
// swept axis; RunOptions carries everything about *how* to run (worker
// threads, core shards, fault injection) so new knobs never change
// runner signatures again.
#pragma once

#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "backend/machine.hpp"
#include "comb/latency.hpp"
#include "comb/params.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "host/noise.hpp"
#include "net/fault.hpp"
#include "report/machine_stats.hpp"
#include "sim/executor.hpp"
#include "sim/tracelog.hpp"

namespace comb {
class ArgParser;
}

namespace comb::bench {

/// Repetition policy for a measurement point. Repetitions exist for the
/// statistical gate (archives, `comb compare`): rep 0 always runs the
/// machine exactly as configured, so the canonical reported point is
/// byte-identical whatever the rep count; reps 1..N-1 re-run the point
/// with the fault-stream seed re-derived from (seed, rep), which is the
/// only stochastic input the simulator has. On a lossless fabric all reps
/// are identical by construction and the adaptive controller stops at
/// minReps with a zero-width interval.
struct RepPolicy {
  /// Fixed repetition count (used when adaptive == false).
  int reps = 1;
  /// --reps-auto: run until the relative CI half-width of the watched
  /// metric (bandwidth) reaches ciTarget, between minReps and maxReps.
  bool adaptive = false;
  int minReps = 3;
  int maxReps = 20;   ///< --max-reps (rep budget for adaptive mode)
  double ciTarget = 0.05;  ///< --ci-target
  double ciLevel = 0.95;
  /// Root seed for per-rep fault-stream derivation and for the bootstrap
  /// resampling stream.
  std::uint64_t seed = 0xC04Bu;

  /// The stats-engine view of this policy.
  AdaptiveRepPolicy adaptivePolicy() const {
    AdaptiveRepPolicy p;
    p.minReps = minReps;
    p.maxReps = maxReps;
    p.ciTarget = ciTarget;
    p.ciLevel = ciLevel;
    p.seed = seed;
    return p;
  }
};

/// Throws comb::ConfigError on out-of-range values (CLI-facing).
void validateRepPolicy(const RepPolicy& policy);

/// Deterministic per-repetition fault seed (splitmix64 mix of root seed
/// and rep index; rep 0 keeps the machine's own seed untouched).
std::uint64_t repSeed(std::uint64_t root, int rep);

/// How to execute a point or sweep, as opposed to *what* to measure
/// (that's the Param struct). Extend here instead of adding positional
/// parameters to runner signatures.
struct RunOptions {
  /// Worker threads for sweeps. Results are bit-identical to jobs=1.
  int jobs = 1;
  /// Shards for the simulator core of each point's cluster (--sim-jobs):
  /// 1 (default) is the classic serial core, bit-identical to every
  /// historical result; N > 1 runs the sharded PDES executor, whose
  /// results are deterministic given N but may differ from serial ones.
  /// Part of a run's configuration identity — archives record it and
  /// `comb compare` flags cross-simJobs comparisons.
  int simJobs = 1;
  /// Pinning policy for the sharded core's worker threads
  /// (--sim-affinity). Wall time only — results are identical across
  /// policies — but archives stamp it so perf comparisons can flag
  /// cross-policy runs. Ignored when simJobs == 1.
  sim::AffinityPolicy simAffinity = sim::AffinityPolicy::None;
  /// When set, overrides the machine's fabric fault model for this run
  /// (the CLI's --fault flag lands here).
  std::optional<net::FaultSpec> fault;
  /// When set, overrides the machine's OS-noise injector for this run
  /// (the CLI's --noise flag lands here).
  std::optional<host::NoiseSpec> noise;
  /// Repetitions per point (only the *Reps runners look at this; the
  /// single-shot runners below always measure exactly once).
  RepPolicy rep;
};

/// The run-options schema both front ends (figure benches and `comb`)
/// share: declares --jobs, --sim-jobs, --sim-affinity, --fault, --noise,
/// the rep options (--reps, --reps-auto, --ci-target, --max-reps, --seed)
/// and --archive, with their help text and defaults. --archive is an
/// output directory, not a RunOptions field; front ends read it directly.
void addRunOptions(ArgParser& parser);

/// The validated RunOptions a parser set up by addRunOptions describes.
/// Throws comb::ConfigError on --jobs or --sim-jobs below 1 (--jobs
/// defaults to all hardware threads), unknown --sim-affinity policies,
/// malformed --fault / --noise specs and out-of-range rep knobs.
RunOptions runOptionsFrom(const ArgParser& parser);

/// Thread-budget mediation between the sweep level (opts.jobs clusters
/// at once) and the core level (opts.simJobs worker threads inside each
/// cluster): returns the per-cluster worker cap (0 = executor default)
/// so that jobs * workers never exceeds hardware concurrency. Logs a
/// warning (once per process) when it has to throttle.
int simWorkerBudget(const RunOptions& opts);

/// The execution-shape subset of `opts` (jobs + simJobs + simAffinity)
/// that nested
/// point runs must inherit from a sweep or rep loop. Fault/rep settings
/// are deliberately dropped — the caller has already folded them into
/// the machine config — but simJobs must ride along (it shapes the
/// cluster, not the machine), and jobs rides for simWorkerBudget's
/// oversubscription math.
inline RunOptions coreOptions(const RunOptions& opts) {
  RunOptions ro;
  ro.jobs = opts.jobs;
  ro.simJobs = opts.simJobs;
  ro.simAffinity = opts.simAffinity;
  return ro;
}

/// All repetitions of one measurement point. reps[0] is the canonical
/// point (machine exactly as configured — byte-identical to a single
/// run); later reps differ only in the derived fault seed.
template <typename Point>
struct RepRun {
  std::vector<Point> reps;
  bool adaptive = false;
  /// Adaptive mode: true when the CI target was reached before the rep
  /// budget ran out. Always true for fixed-rep runs.
  bool converged = true;
  /// Bootstrap CI over the per-rep bandwidth samples (the watched metric).
  BootstrapCi bandwidthCi;

  const Point& canonical() const { return reps.front(); }
  std::vector<double> metricSamples(double (*metric)(const Point&)) const {
    std::vector<double> xs;
    xs.reserve(reps.size());
    for (const auto& p : reps) xs.push_back(metric(p));
    return xs;
  }
};

/// A sweep: the base parameter set plus the axis being swept. With
/// `axis == nullptr` the method's primary variable is swept (polling:
/// pollInterval; PWW: workInterval; latency: msgBytes); any other
/// std::uint64_t member can be named explicitly, e.g.
/// `spec.axis = &PollingParams::msgBytes`.
template <typename Param>
struct SweepSpec {
  Param base{};
  std::uint64_t Param::*axis = nullptr;
  std::vector<std::uint64_t> values;
};

/// Convenience maker: `sweepOver(base, values)` sweeps the method's
/// primary axis; name any other std::uint64_t member to sweep it instead.
template <typename Param>
SweepSpec<Param> sweepOver(Param base, std::vector<std::uint64_t> values,
                           std::uint64_t Param::*axis = nullptr) {
  SweepSpec<Param> spec;
  spec.base = std::move(base);
  spec.axis = axis;
  spec.values = std::move(values);
  return spec;
}

/// Apply a RunOptions fault override to a machine description.
backend::MachineConfig machineWithOptions(const backend::MachineConfig& machine,
                                          const RunOptions& opts);

PollingPoint runPollingPoint(const backend::MachineConfig& machine,
                             const PollingParams& params,
                             const RunOptions& opts = {});
PwwPoint runPwwPoint(const backend::MachineConfig& machine,
                     const PwwParams& params, const RunOptions& opts = {});
LatencyPoint runLatencyPoint(const backend::MachineConfig& machine,
                             const LatencyParams& params,
                             const RunOptions& opts = {});

/// One point re-run with full tracing attached: the measured point (its
/// numbers are identical to the untraced run — trace emission never
/// advances virtual time), the complete timeline, and the machine-stats
/// snapshot (metrics included) taken before teardown.
template <typename Point>
struct TracedRun {
  Point point;
  std::unique_ptr<sim::TraceLog> trace;
  report::MachineStats stats;
};

TracedRun<PollingPoint> runPollingPointTraced(
    const backend::MachineConfig& machine, const PollingParams& params,
    const RunOptions& opts = {}, std::size_t traceCapacity = 1 << 20);
TracedRun<PwwPoint> runPwwPointTraced(const backend::MachineConfig& machine,
                                      const PwwParams& params,
                                      const RunOptions& opts = {},
                                      std::size_t traceCapacity = 1 << 20);

/// Generic parallel sweep executor: run `runOne(machine, paramSets[i])`
/// for every parameter set, using up to `jobs` worker threads.
///
/// * Results come back in input order (slot i = paramSets[i]) no matter
///   how the points were scheduled.
/// * `jobs <= 1` (or a single point) degenerates to the serial in-order
///   loop on the calling thread — no pool is created.
/// * If points throw, the exception from the lowest-index point is
///   rethrown after all workers finish (deterministic across runs).
template <typename Param, typename RunOne>
auto runSweepParallel(const backend::MachineConfig& machine,
                      const std::vector<Param>& paramSets, RunOne&& runOne,
                      int jobs)
    -> std::vector<std::decay_t<
        decltype(runOne(machine, std::declval<const Param&>()))>> {
  using Point = std::decay_t<decltype(runOne(machine, std::declval<const Param&>()))>;
  std::vector<Point> points(paramSets.size());
  parallelFor(paramSets.size(), jobs,
              [&](std::size_t i) { points[i] = runOne(machine, paramSets[i]); });
  return points;
}

/// Sweep the axis named by `spec` (default: the polling interval).
std::vector<PollingPoint> runPollingSweep(const backend::MachineConfig& machine,
                                          const SweepSpec<PollingParams>& spec,
                                          const RunOptions& opts = {});

/// Sweep the axis named by `spec` (default: the work interval).
std::vector<PwwPoint> runPwwSweep(const backend::MachineConfig& machine,
                                  const SweepSpec<PwwParams>& spec,
                                  const RunOptions& opts = {});

/// Sweep the axis named by `spec` (default: the message size). Reps and
/// tag ride along in spec.base like every other method parameter.
std::vector<LatencyPoint> runLatencySweep(const backend::MachineConfig& machine,
                                          const SweepSpec<LatencyParams>& spec,
                                          const RunOptions& opts = {});

// --- repetition-aware runners (statistical gate) ---------------------------
//
// Same measurement as the plain runners, executed opts.rep times per
// point (or adaptively). Sweep variants parallelize over points exactly
// like the plain sweeps; the reps within one point run serially because
// the adaptive stop rule is inherently sequential.

/// Shared rep loop (used by every *PointReps runner, including the
/// congestion module): rep 0 runs the machine exactly as configured,
/// later reps reseed the per-link fault stream from (policy.seed, rep).
/// On a lossless fabric the reseed is a no-op by construction (the fault
/// stream is never sampled), so all reps are bit-identical. `runOne` is
/// called as runOne(machine) and must return a Point with a
/// `bandwidthBps` member (the watched metric).
template <typename Point, typename RunOne>
RepRun<Point> runPointRepsWith(const backend::MachineConfig& machine,
                               const RunOptions& opts, RunOne&& runOne) {
  validateRepPolicy(opts.rep);
  const backend::MachineConfig base = machineWithOptions(machine, opts);
  // The per-rep runner must not re-apply opts.fault/rep (already folded
  // into `base`), so reps run with a bare RunOptions.
  const auto runRep = [&](int rep) {
    if (rep == 0) return runOne(base);
    backend::MachineConfig m = base;
    m.fabric.link.fault.seed =
        repSeed(opts.rep.seed ^ m.fabric.link.fault.seed, rep);
    return runOne(m);
  };

  RepRun<Point> run;
  run.adaptive = opts.rep.adaptive;
  if (opts.rep.adaptive) {
    AdaptiveRep controller(opts.rep.adaptivePolicy());
    while (controller.wantMore()) {
      const auto rep = static_cast<int>(run.reps.size());
      run.reps.push_back(runRep(rep));
      controller.add(run.reps.back().bandwidthBps);
    }
    run.converged = controller.converged();
    run.bandwidthCi = controller.ci();
  } else {
    run.reps.reserve(static_cast<std::size_t>(opts.rep.reps));
    for (int rep = 0; rep < opts.rep.reps; ++rep)
      run.reps.push_back(runRep(rep));
    BootstrapOptions bopts;
    bopts.level = opts.rep.ciLevel;
    bopts.seed = opts.rep.seed;
    std::vector<double> bw;
    bw.reserve(run.reps.size());
    for (const auto& p : run.reps) bw.push_back(p.bandwidthBps);
    run.bandwidthCi = bootstrapMeanCi(bw, bopts);
  }
  return run;
}

RepRun<PollingPoint> runPollingPointReps(const backend::MachineConfig& machine,
                                         const PollingParams& params,
                                         const RunOptions& opts = {});
RepRun<PwwPoint> runPwwPointReps(const backend::MachineConfig& machine,
                                 const PwwParams& params,
                                 const RunOptions& opts = {});
RepRun<LatencyPoint> runLatencyPointReps(const backend::MachineConfig& machine,
                                         const LatencyParams& params,
                                         const RunOptions& opts = {});

std::vector<RepRun<PollingPoint>> runPollingSweepReps(
    const backend::MachineConfig& machine, const SweepSpec<PollingParams>& spec,
    const RunOptions& opts = {});
std::vector<RepRun<PwwPoint>> runPwwSweepReps(
    const backend::MachineConfig& machine, const SweepSpec<PwwParams>& spec,
    const RunOptions& opts = {});
std::vector<RepRun<LatencyPoint>> runLatencySweepReps(
    const backend::MachineConfig& machine, const SweepSpec<LatencyParams>& spec,
    const RunOptions& opts = {});

}  // namespace comb::bench
