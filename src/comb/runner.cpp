#include "comb/runner.hpp"

#include <cmath>

#include <algorithm>
#include <atomic>
#include <sstream>

#include "comb/polling.hpp"
#include "comb/pww.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"

namespace comb::bench {

backend::MachineConfig machineWithOptions(const backend::MachineConfig& machine,
                                          const RunOptions& opts) {
  if (!opts.fault && !opts.noise) return machine;
  backend::MachineConfig m = machine;
  if (opts.fault) {
    net::validateFaultSpec(*opts.fault);
    m.fabric.link.fault = *opts.fault;
  }
  if (opts.noise) {
    host::validateNoiseSpec(*opts.noise);
    m.noise = *opts.noise;
  }
  return m;
}

int simWorkerBudget(const RunOptions& opts) {
  if (opts.simJobs <= 1) return 0;  // serial core: no worker threads at all
  const int sweepJobs = std::max(opts.jobs, 1);
  const int hw = std::max(hardwareJobs(), 1);
  if (static_cast<long long>(sweepJobs) * opts.simJobs <= hw) return 0;
  const int cap = std::max(1, hw / sweepJobs);
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    COMB_LOG(Warn) << "thread budget: --jobs " << sweepJobs << " x --sim-jobs "
                   << opts.simJobs << " exceeds hardware concurrency (" << hw
                   << "); capping each cluster at " << cap
                   << " worker thread(s). Results are unchanged (shard count "
                      "is fixed by --sim-jobs); only wall time is affected.";
  }
  return cap;
}

void validateRepPolicy(const RepPolicy& policy) {
  COMB_REQUIRE(policy.reps >= 1, "--reps must be >= 1");
  COMB_REQUIRE(policy.maxReps >= 1, "--max-reps must be >= 1");
  COMB_REQUIRE(policy.minReps >= 1 && policy.minReps <= policy.maxReps,
               "rep policy needs 1 <= minReps <= maxReps");
  COMB_REQUIRE(policy.ciTarget > 0.0, "--ci-target must be > 0");
  COMB_REQUIRE(policy.ciLevel > 0.0 && policy.ciLevel < 1.0,
               "CI level outside (0,1)");
}

void addRunOptions(ArgParser& parser) {
  parser.addOption("jobs",
                   "worker threads for sweep points (results are "
                   "bit-identical for any value)",
                   std::to_string(hardwareJobs()));
  parser.addOption("sim-jobs",
                   "simulator-core shards per cluster (1 = classic serial "
                   "core; N > 1 is a distinct, deterministic configuration "
                   "recorded in archives)",
                   "1");
  parser.addOption("sim-affinity",
                   "shard-worker pinning: none | compact | scatter (wall "
                   "time only — results are identical across policies)",
                   "none");
  parser.addOption("fault",
                   "inject link faults, e.g. drop=0.01,burst=4,seed=7 "
                   "(keys: drop, burst, corrupt, jitter_us, seed)",
                   "");
  parser.addOption("noise",
                   "inject OS noise on every host CPU, e.g. "
                   "period_us=250,duration_us=20 (keys: period_us, "
                   "duration_us, jitter, daemons, coalesce_us, seed)",
                   "");
  parser.addOption("reps", "repetitions per measurement point", "1");
  parser.addFlag("reps-auto",
                 "adaptive reps: run until the relative CI half-width of "
                 "the bandwidth reaches --ci-target (or --max-reps)");
  parser.addOption("ci-target", "relative CI half-width to stop at", "0.05");
  parser.addOption("max-reps", "rep budget for --reps-auto", "20");
  parser.addOption("seed",
                   "root seed for per-rep fault streams + bootstrap",
                   "49227");
  parser.addOption("archive",
                   "write a result archive (per-rep samples, provenance) "
                   "into DIR for `comb compare`",
                   "");
}

RunOptions runOptionsFrom(const ArgParser& parser) {
  const auto atLeastOne = [&](const std::string& name) {
    const std::int64_t v = parser.integer(name);
    if (v < 1)
      throw ConfigError("--" + name + " must be >= 1, got " +
                        parser.str(name));
    return static_cast<int>(v);
  };
  RunOptions opts;
  opts.jobs = atLeastOne("jobs");
  opts.simJobs = atLeastOne("sim-jobs");
  opts.simAffinity = sim::parseAffinityPolicy(parser.str("sim-affinity"));
  if (const auto spec = parser.str("fault"); !spec.empty())
    opts.fault = net::parseFaultSpec(spec);
  if (const auto spec = parser.str("noise"); !spec.empty())
    opts.noise = host::parseNoiseSpec(spec);
  RepPolicy& rep = opts.rep;
  rep.reps = static_cast<int>(parser.integer("reps"));
  rep.adaptive = parser.flag("reps-auto");
  rep.maxReps = static_cast<int>(parser.integer("max-reps"));
  rep.minReps = std::min(rep.minReps, rep.maxReps);
  rep.ciTarget = parser.real("ci-target");
  rep.seed = static_cast<std::uint64_t>(parser.integer("seed"));
  validateRepPolicy(rep);
  return opts;
}

std::uint64_t repSeed(std::uint64_t root, int rep) {
  // splitmix64 walk: mix the rep index into the root so that nearby reps
  // get statistically independent fault streams.
  std::uint64_t state = root ^ (0x9E3779B97F4A7C15ull *
                                static_cast<std::uint64_t>(rep));
  return splitmix64(state);
}

std::vector<std::uint64_t> logSweep(std::uint64_t lo, std::uint64_t hi,
                                    int pointsPerDecade) {
  COMB_REQUIRE(lo > 0 && hi >= lo, "bad sweep bounds");
  COMB_REQUIRE(pointsPerDecade >= 1, "need at least one point per decade");
  std::vector<std::uint64_t> xs;
  const double e0 = std::log10(static_cast<double>(lo));
  const double step = 1.0 / pointsPerDecade;
  // Values at or above 2^64 are unrepresentable; break before casting
  // (the cast itself would be UB, and llround saturates at 2^63 anyway).
  constexpr double kTwoPow64 = 18446744073709551616.0;
  for (std::uint64_t i = 0;; ++i) {
    // Recompute from the integer index: accumulating `e += step` drifts
    // after tens of additions and can skip or duplicate a grid point.
    const double e = e0 + static_cast<double>(i) * step;
    const double vd = std::round(std::pow(10.0, e));
    if (!(vd < kTwoPow64)) break;
    const auto v = static_cast<std::uint64_t>(vd);
    if (v > hi) break;
    if (xs.empty() || v != xs.back()) xs.push_back(v);
  }
  if (xs.empty() || xs.back() != hi) xs.push_back(hi);
  for (std::size_t i = 1; i < xs.size(); ++i)
    COMB_ASSERT(xs[i] > xs[i - 1], "logSweep grid not strictly increasing");
  return xs;
}

std::string Method<PollingParams>::describe(const PollingPoint& p) {
  std::ostringstream os;
  os << "polling interval=" << p.pollInterval
     << " bw=" << toMBps(p.bandwidthBps) << " MB/s avail=" << p.availability;
  return os.str();
}

PollingPoint Method<PollingParams>::measure(backend::SimCluster& cluster,
                                            const PollingParams& p) {
  PollingPoint point;
  cluster.launch(0, storeInto(pollingWorker(cluster.proc(0), p), point),
                 "polling-worker");
  cluster.launch(1, pollingSupport(cluster.proc(1), p), "polling-support");
  cluster.run();
  return point;
}

std::string Method<PwwParams>::describe(const PwwPoint& p) {
  std::ostringstream os;
  os << "pww work=" << p.workInterval << " bw=" << toMBps(p.bandwidthBps)
     << " MB/s avail=" << p.availability;
  return os.str();
}

PwwPoint Method<PwwParams>::measure(backend::SimCluster& cluster,
                                    const PwwParams& p) {
  PwwPoint point;
  cluster.launch(0, storeInto(pwwWorker(cluster.proc(0), p), point),
                 "pww-worker");
  cluster.launch(1, pwwSupport(cluster.proc(1), p), "pww-support");
  cluster.run();
  return point;
}

std::string Method<LatencyParams>::describe(const LatencyPoint& p) {
  std::ostringstream os;
  os << "latency bytes=" << p.msgBytes
     << " half_rtt=" << p.halfRoundTripAvg * 1e6
     << " us bw=" << toMBps(p.bandwidthBps) << " MB/s";
  return os.str();
}

LatencyPoint Method<LatencyParams>::measure(backend::SimCluster& cluster,
                                            const LatencyParams& p) {
  LatencyPoint point;
  cluster.launch(0, storeInto(latencyInitiator(cluster.proc(0), p), point),
                 "latency-initiator");
  cluster.launch(1, latencyEcho(cluster.proc(1), p), "latency-echo");
  cluster.run();
  return point;
}

}  // namespace comb::bench
