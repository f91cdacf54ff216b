// Builders that turn repetition runs (comb/runner RepRun) into the
// report/archive schema: one ArchiveSweep per (method, machine, size)
// family, with per-rep samples for every metric the method's row lists
// and the regression direction each metric moves in.
//
// Every appended sweep also carries the shared tail metrics —
// send/recv completion-latency p50/p99/p999 (µs, merged over all ranks,
// class "tail", lower is better) — and stamps the archive provenance
// with the percentile base and the peak shard imbalance over all reps,
// so `comb compare --metric-class tail` can gate latency tails
// separately from the central-tendency metrics.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "comb/congestion.hpp"
#include "comb/runner.hpp"
#include "common/error.hpp"
#include "report/archive.hpp"

namespace comb::bench {

/// Start an archive: bench id, the rep policy the samples were collected
/// under, and this build's provenance stamp. `simJobs` is the
/// simulator-core shard count and `affinity` the worker-pinning policy
/// the samples ran under (configuration identity — `comb compare` flags
/// archives whose values differ). For sharded runs the lookahead source
/// is stamped "matrix" (SimCluster always derives per-pair bounds from
/// the wired topology); the certified scalar floor itself is stamped by
/// appendSweep, which sees the machine.
report::Archive makeArchive(
    const std::string& bench, const RepPolicy& rep, int simJobs = 1,
    sim::AffinityPolicy affinity = sim::AffinityPolicy::None);

/// Stamp `machine` into the archive provenance (stack, certified
/// lookahead floor, tail percentile base) and start its sweep.
report::ArchiveSweep beginSweep(report::Archive& archive,
                                const std::string& id,
                                const backend::MachineConfig& machine,
                                const std::string& xlabel);

/// The tail metrics every row shares: send/recv completion-latency p50
/// (the median, so a tail-only regression is visible as such), p99 and
/// p999, merged over all ranks. Tails regress by growing.
template <typename Point>
inline constexpr MetricDef<Point> kTailMetrics[] = {
    {"send_p50_us", false, [](const Point& p) { return p.sendTail.p50 * 1e6; }},
    {"send_p99_us", false, [](const Point& p) { return p.sendTail.p99 * 1e6; }},
    {"send_p999_us", false,
     [](const Point& p) { return p.sendTail.p999 * 1e6; }},
    {"recv_p50_us", false, [](const Point& p) { return p.recvTail.p50 * 1e6; }},
    {"recv_p99_us", false, [](const Point& p) { return p.recvTail.p99 * 1e6; }},
    {"recv_p999_us", false,
     [](const Point& p) { return p.recvTail.p999 * 1e6; }},
};

/// Append one sweep of any row's points: per point, the per-rep samples
/// of the row's metrics, then the tail metrics (class "tail").
template <typename Point>
void appendSweep(report::Archive& archive, const std::string& id,
                 const backend::MachineConfig& machine,
                 const std::vector<std::uint64_t>& xs,
                 const std::vector<RepRun<Point>>& runs,
                 const std::string& xlabel =
                     Method<typename Point::Param>::xlabel) {
  COMB_REQUIRE(xs.size() == runs.size(),
               "archive sweep: axis/result size mismatch");
  report::ArchiveSweep sweep = beginSweep(archive, id, machine, xlabel);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    report::ArchivePoint point;
    point.x = static_cast<double>(xs[i]);
    point.converged = runs[i].converged;
    const auto add = [&](const MetricDef<Point>& def, const char* cls) {
      report::ArchiveMetric m;
      m.name = def.name;
      m.higherIsBetter = def.higherIsBetter;
      m.metricClass = cls;
      m.samples = runs[i].metricSamples(def.value);
      point.metrics.push_back(std::move(m));
    };
    for (const auto& def : Method<typename Point::Param>::metrics)
      add(def, "mean");
    for (const auto& def : kTailMetrics<Point>) add(def, "tail");
    for (const auto& rep : runs[i].reps)
      archive.provenance.shardImbalance =
          std::max(archive.provenance.shardImbalance, rep.shardImbalance);
    sweep.points.push_back(std::move(point));
  }
  archive.sweeps.push_back(std::move(sweep));
}

// The names perfbench appends its sweeps under.
inline void appendPollingSweep(
    report::Archive& archive, const std::string& id,
    const backend::MachineConfig& machine,
    const std::vector<std::uint64_t>& xs,
    const std::vector<RepRun<PollingPoint>>& runs,
    const std::string& xlabel = Method<PollingParams>::xlabel) {
  appendSweep(archive, id, machine, xs, runs, xlabel);
}
inline void appendPwwSweep(report::Archive& archive, const std::string& id,
                           const backend::MachineConfig& machine,
                           const std::vector<std::uint64_t>& xs,
                           const std::vector<RepRun<PwwPoint>>& runs,
                           const std::string& xlabel =
                               Method<PwwParams>::xlabel) {
  appendSweep(archive, id, machine, xs, runs, xlabel);
}
inline void appendCongestionSweep(
    report::Archive& archive, const std::string& id,
    const backend::MachineConfig& machine,
    const std::vector<std::uint64_t>& xs,
    const std::vector<RepRun<CongestionPoint>>& runs,
    const std::string& xlabel = Method<CongestionParams>::xlabel) {
  appendSweep(archive, id, machine, xs, runs, xlabel);
}

}  // namespace comb::bench
