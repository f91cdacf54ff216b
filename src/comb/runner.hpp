// Runners: execute one COMB measurement (or a sweep) on a simulated
// machine. Each point runs on a freshly built cluster, sized by its
// method's row, so sweep points are independent and bit-reproducible.
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
// runner signatures again. The method table (Method<Param>, below) is
// what the one set of runners serves: runPoint, runPointTraced,
// runSweep, runPointReps and runSweepReps take any row's Param.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "comb/audit.hpp"
#include "comb/latency.hpp"
#include "comb/params.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
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
/// `axis == nullptr` the row's primary axis is swept (Method<Param>::axis:
/// polling pollInterval, PWW workInterval, latency msgBytes, congestion
/// nodes); any other std::uint64_t member can be named explicitly, e.g.
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

// --- the method table -------------------------------------------------------
//
// Each COMB method is one row: a specialization of Method<Param>, found
// from its Param type (and from a Point through Point::Param). A row holds
//
//   Point          the measured record
//   axis           the primary sweep axis (SweepSpec::axis == nullptr)
//   xlabel         the archive x-label of a sweep over that axis
//   nodes(p)       the cluster size one point runs on
//   metrics        the archive metrics (the tail metrics every row shares
//                  ride along, comb/archive_build.hpp)
//   describe(pt)   the Debug log line of a sweep point
//   measure(c, p)  launch the method's processes on cluster `c` under
//                  their trace names, run it and reduce to a Point
//
// and, where the trace-driven overlap audit knows the method,
// audit(log, pt). Every runner below serves every row.

/// One archive metric: name, regression direction, per-point value.
template <typename Point>
struct MetricDef {
  const char* name;
  bool higherIsBetter;
  double (*value)(const Point&);
};

/// A traced point's overlap audit: the first mismatch (empty when the
/// span data reproduces the point) and the availability the spans give.
struct AuditResult {
  std::string error;
  double availability = 0.0;
};

template <typename Param>
struct Method;

template <typename Param>
using PointOf = typename Method<Param>::Point;

template <>
struct Method<PollingParams> {
  using Point = PollingPoint;
  static constexpr auto axis = &PollingParams::pollInterval;
  static constexpr const char* xlabel = "poll_interval_iters";
  static int nodes(const PollingParams&) { return 2; }
  static constexpr MetricDef<Point> metrics[] = {
      {"availability", true, [](const Point& p) { return p.availability; }},
      {"bandwidth_MBps", true,
       [](const Point& p) { return toMBps(p.bandwidthBps); }},
  };
  static std::string describe(const Point& p);
  static Point measure(backend::SimCluster& cluster, const PollingParams& p);
  static AuditResult audit(const sim::TraceLog& log, const Point& p) {
    const auto a = auditPolling(log);
    return {checkPolling(a, p), a.availability};
  }
};

template <>
struct Method<PwwParams> {
  using Point = PwwPoint;
  static constexpr auto axis = &PwwParams::workInterval;
  static constexpr const char* xlabel = "work_interval_iters";
  static int nodes(const PwwParams&) { return 2; }
  static constexpr MetricDef<Point> metrics[] = {
      {"availability", true, [](const Point& p) { return p.availability; }},
      {"bandwidth_MBps", true,
       [](const Point& p) { return toMBps(p.bandwidthBps); }},
      {"post_us_per_op", false,
       [](const Point& p) { return p.avgPostPerOp * 1e6; }},
      {"work_us", false, [](const Point& p) { return p.avgWork * 1e6; }},
      {"wait_us_per_msg", false,
       [](const Point& p) { return p.avgWaitPerMsg * 1e6; }},
  };
  static std::string describe(const Point& p);
  static Point measure(backend::SimCluster& cluster, const PwwParams& p);
  static AuditResult audit(const sim::TraceLog& log, const Point& p) {
    const auto a = auditPww(log);
    return {checkPww(a, p), a.availability};
  }
};

template <>
struct Method<LatencyParams> {
  using Point = LatencyPoint;
  static constexpr auto axis = &LatencyParams::msgBytes;
  static constexpr const char* xlabel = "msg_bytes";
  static int nodes(const LatencyParams&) { return 2; }
  static constexpr MetricDef<Point> metrics[] = {
      {"latency_us", false,
       [](const Point& p) { return p.halfRoundTripAvg * 1e6; }},
      {"bandwidth_MBps", true,
       [](const Point& p) { return toMBps(p.bandwidthBps); }},
  };
  static std::string describe(const Point& p);
  static Point measure(backend::SimCluster& cluster, const LatencyParams& p);
};

/// Spawn `task` and store its result in `out` (a row's measure launches
/// each result-returning process through this).
template <typename T>
sim::Task<void> storeInto(sim::Task<T> task, T& out) {
  out = co_await task;
}

/// A fresh cluster for one point of `params`' method, sized by its row,
/// with `opts`' overrides and execution shape applied.
template <typename Param>
backend::SimCluster clusterFor(const backend::MachineConfig& machine,
                               const Param& params, const RunOptions& opts) {
  return backend::SimCluster(machineWithOptions(machine, opts),
                             Method<Param>::nodes(params), opts.simJobs,
                             simWorkerBudget(opts), opts.simAffinity);
}

/// Measure one point on a cluster the caller built (and may trace or
/// inspect afterwards): the row's measure, plus what every Point carries
/// — the cluster's fault/reliability counters, the per-message MPI
/// send/recv latency tails merged over every rank's base recorder
/// (shard-count invariant, so byte-identical across --sim-jobs) and the
/// executor's load imbalance.
template <typename Param>
PointOf<Param> measureOn(backend::SimCluster& cluster, const Param& params) {
  auto point = Method<Param>::measure(cluster, params);
  point.fault = cluster.faultCounters();
  const auto snap = cluster.metricsSnapshot();
  point.sendTail =
      metrics::mergeLatencyFamily(snap, "mpi.n", ".send_latency").tail();
  point.recvTail =
      metrics::mergeLatencyFamily(snap, "mpi.n", ".recv_latency").tail();
  point.shardImbalance = cluster.shardImbalance();
  return point;
}

/// One point on a freshly built cluster.
template <typename Param>
PointOf<Param> runPoint(const backend::MachineConfig& machine,
                        const Param& params, const RunOptions& opts = {}) {
  backend::SimCluster cluster = clusterFor(machine, params, opts);
  return measureOn(cluster, params);
}

/// One point with full tracing attached (see TracedRun).
template <typename Param>
TracedRun<PointOf<Param>> runPointTraced(const backend::MachineConfig& machine,
                                         const Param& params,
                                         const RunOptions& opts = {},
                                         std::size_t traceCapacity = 1 << 20) {
  backend::SimCluster cluster = clusterFor(machine, params, opts);
  cluster.enableTracing(traceCapacity);
  TracedRun<PointOf<Param>> run;
  run.point = measureOn(cluster, params);
  run.stats = report::snapshot(cluster);
  run.trace = cluster.releaseTraceLog();
  return run;
}

/// The per-point parameter sets of a sweep.
template <typename Param>
std::vector<Param> expandSweep(const SweepSpec<Param>& spec) {
  const auto axis = spec.axis != nullptr ? spec.axis : Method<Param>::axis;
  std::vector<Param> paramSets;
  paramSets.reserve(spec.values.size());
  for (const auto v : spec.values) {
    Param p = spec.base;
    p.*axis = v;
    paramSets.push_back(p);
  }
  return paramSets;
}

/// Sweep the axis named by `spec` (default: the row's primary axis).
template <typename Param>
std::vector<PointOf<Param>> runSweep(const backend::MachineConfig& machine,
                                     const SweepSpec<Param>& spec,
                                     const RunOptions& opts = {}) {
  auto points = runSweepParallel(
      machineWithOptions(machine, opts), expandSweep(spec),
      [&opts](const backend::MachineConfig& m, const Param& p) {
        return runPoint(m, p, coreOptions(opts));
      },
      opts.jobs);
  // Log after the sweep, in input order, so the trace reads identically
  // whether points ran serially or on the pool.
  for (const auto& p : points)
    COMB_LOG(Debug) << machine.name << ' ' << Method<Param>::describe(p);
  return points;
}

// --- repetition-aware runners (statistical gate) ---------------------------
//
// Same measurement as the plain runners, executed opts.rep times per
// point (or adaptively). Sweep variants parallelize over points exactly
// like the plain sweeps; the reps within one point run serially because
// the adaptive stop rule is inherently sequential.

/// All repetitions of one point: rep 0 runs the machine exactly as
/// configured, later reps reseed the per-link fault stream from
/// (policy.seed, rep). On a lossless fabric the reseed is a no-op by
/// construction (the fault stream is never sampled), so all reps are
/// bit-identical. The watched metric is the Point's `bandwidthBps`.
template <typename Param>
RepRun<PointOf<Param>> runPointReps(const backend::MachineConfig& machine,
                                    const Param& params,
                                    const RunOptions& opts = {}) {
  validateRepPolicy(opts.rep);
  const backend::MachineConfig base = machineWithOptions(machine, opts);
  // The per-rep runs must not re-apply opts.fault/rep (already folded
  // into `base`), so they run with the bare execution shape.
  const auto runRep = [&](int rep) {
    if (rep == 0) return runPoint(base, params, coreOptions(opts));
    backend::MachineConfig m = base;
    m.fabric.link.fault.seed =
        repSeed(opts.rep.seed ^ m.fabric.link.fault.seed, rep);
    return runPoint(m, params, coreOptions(opts));
  };

  RepRun<PointOf<Param>> run;
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

/// runPointReps over every point of a sweep: points fan out over the
/// pool (reps within a point stay serial), with runSweepParallel's order
/// and exception contract.
template <typename Param>
std::vector<RepRun<PointOf<Param>>> runSweepReps(
    const backend::MachineConfig& machine, const SweepSpec<Param>& spec,
    const RunOptions& opts = {}) {
  validateRepPolicy(opts.rep);
  const auto paramSets = expandSweep(spec);
  std::vector<RepRun<PointOf<Param>>> runs(paramSets.size());
  parallelFor(paramSets.size(), opts.jobs, [&](std::size_t i) {
    runs[i] = runPointReps(machine, paramSets[i], opts);
  });
  return runs;
}

}  // namespace comb::bench
