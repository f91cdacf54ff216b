#include "comb/congestion.hpp"

#include <algorithm>
#include <limits>

#include "backend/sim_cluster.hpp"
#include "common/log.hpp"

namespace comb::bench {

const char* congestionPatternName(CongestionPattern p) {
  switch (p) {
    case CongestionPattern::Incast:
      return "incast";
    case CongestionPattern::Hotspot:
      return "hotspot";
    case CongestionPattern::AllToAll:
      return "all-to-all";
  }
  return "?";
}

std::vector<int> congestionDests(const CongestionParams& p, int rank) {
  const int n = static_cast<int>(p.nodes);
  const int m = p.messagesPerSender;
  std::vector<int> dests;
  switch (p.pattern) {
    case CongestionPattern::Incast:
      if (rank == 0) return dests;
      dests.assign(static_cast<std::size_t>(m), 0);
      return dests;
    case CongestionPattern::Hotspot: {
      if (rank == 0) return dests;
      // Even slots hit the hot spot, odd slots a ring neighbour (skipping
      // the hot spot). With 2 nodes there is no cold neighbour — the
      // pattern degenerates to incast.
      int neighbor = (rank + 1) % n;
      if (neighbor == 0) neighbor = 1;
      dests.reserve(static_cast<std::size_t>(m));
      for (int k = 0; k < m; ++k)
        dests.push_back((k % 2 == 0 || neighbor == rank) ? 0 : neighbor);
      return dests;
    }
    case CongestionPattern::AllToAll: {
      // Pairwise exchange: cycle through the other ranks starting at the
      // successor, so every (src, dst) pair carries ~m/(n-1) messages and
      // each node's send and receive volumes are equal.
      dests.reserve(static_cast<std::size_t>(m));
      for (int k = 0; k < m; ++k)
        dests.push_back((rank + 1 + (k % (n - 1))) % n);
      return dests;
    }
  }
  return dests;
}

std::uint64_t congestionExpectedRecvs(const CongestionParams& p, int rank) {
  // Column sums of congestionDests' matrix in closed form: building every
  // sender's list would cost each of n ranks n vectors.
  const std::uint64_t n = p.nodes;
  const auto m = static_cast<std::uint64_t>(p.messagesPerSender);
  switch (p.pattern) {
    case CongestionPattern::Incast:
      return rank == 0 ? (n - 1) * m : 0;
    case CongestionPattern::Hotspot:
      // Each sender's even slots hit rank 0 and its odd slots its ring
      // neighbour: rank r >= 2 is the neighbour of r - 1 and rank 1 that
      // of n - 1. With 2 nodes the pattern is incast.
      if (n == 2) return rank == 0 ? m : 0;
      return rank == 0 ? (n - 1) * ((m + 1) / 2) : m / 2;
    case CongestionPattern::AllToAll:
      // Slot k maps every rank s to s + 1 + k % (n - 1) (mod n), a
      // permutation: each rank receives one message per slot.
      return m;
  }
  return 0;
}

namespace {

sim::Task<void> congestionDriver(backend::SimProc& env, CongestionParams p,
                                 CongestionNodeResult& out) {
  out = co_await congestionNodeOn(env, p, env.mpi().world());
}

}  // namespace

CongestionPoint runCongestionPoint(const backend::MachineConfig& machine,
                                   const CongestionParams& params,
                                   const RunOptions& opts) {
  COMB_REQUIRE(params.nodes >= 2 && params.nodes <= (1u << 20),
               "congestion needs 2 <= nodes <= 2^20");
  const int n = static_cast<int>(params.nodes);
  backend::SimCluster cluster(machineWithOptions(machine, opts), n,
                              opts.simJobs, simWorkerBudget(opts),
                              opts.simAffinity);
  std::vector<CongestionNodeResult> nodes(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    cluster.launch(r, congestionDriver(cluster.proc(r), params, nodes[r]),
                   "congestion-node");
  cluster.run();

  CongestionPoint point;
  point.nodes = params.nodes;
  point.msgBytes = params.msgBytes;
  point.pattern = params.pattern;
  point.nodeBandwidthBps.reserve(nodes.size());
  point.nodeAvailability.reserve(nodes.size());
  double totalBytes = 0.0;
  double availSum = 0.0;
  double minAvail = std::numeric_limits<double>::infinity();
  double minBw = std::numeric_limits<double>::infinity();
  double bwSum = 0.0;
  int senders = 0;
  for (const auto& node : nodes)
    point.makespan = std::max(point.makespan, node.liveTime);
  // Sender goodput is its delivered share over the pattern makespan. A
  // sender's own liveTime ends at *local* send completion, which an idle
  // uplink reaches at wire speed regardless of how contended the victim's
  // downlink is — the makespan is what congestion actually stretches.
  for (auto& node : nodes)
    node.bandwidthBps =
        (point.makespan > 0 && node.messagesSent > 0)
            ? static_cast<double>(node.messagesSent) *
                  static_cast<double>(params.msgBytes) / point.makespan
            : 0.0;
  for (const auto& node : nodes) {
    point.messagesDelivered += node.messagesReceived;
    totalBytes += static_cast<double>(node.messagesSent) *
                  static_cast<double>(params.msgBytes);
    point.nodeBandwidthBps.push_back(node.bandwidthBps);
    point.nodeAvailability.push_back(node.availability);
    availSum += node.availability;
    minAvail = std::min(minAvail, node.availability);
    if (node.messagesSent > 0) {
      ++senders;
      bwSum += node.bandwidthBps;
      minBw = std::min(minBw, node.bandwidthBps);
    }
  }
  point.availability = availSum / static_cast<double>(n);
  point.minAvailability = minAvail;
  point.meanNodeBandwidthBps =
      senders > 0 ? bwSum / static_cast<double>(senders) : 0.0;
  point.minNodeBandwidthBps = senders > 0 ? minBw : 0.0;
  point.bandwidthBps = point.makespan > 0 ? totalBytes / point.makespan : 0.0;
  point.switches = cluster.fabric().switchTotals();
  point.fault = cluster.faultCounters();
  const auto snap = cluster.metricsSnapshot();
  point.sendTail =
      metrics::mergeLatencyFamily(snap, "mpi.n", ".send_latency").tail();
  point.recvTail =
      metrics::mergeLatencyFamily(snap, "mpi.n", ".recv_latency").tail();
  point.shardImbalance = cluster.shardImbalance();
  return point;
}

namespace {

std::vector<CongestionParams> expandCongestionSpec(
    const SweepSpec<CongestionParams>& spec) {
  const auto axis = spec.axis != nullptr ? spec.axis : &CongestionParams::nodes;
  std::vector<CongestionParams> paramSets;
  paramSets.reserve(spec.values.size());
  for (const auto v : spec.values) {
    CongestionParams p = spec.base;
    p.*axis = v;
    paramSets.push_back(p);
  }
  return paramSets;
}

}  // namespace

std::vector<CongestionPoint> runCongestionSweep(
    const backend::MachineConfig& machine,
    const SweepSpec<CongestionParams>& spec, const RunOptions& opts) {
  const auto m = machineWithOptions(machine, opts);
  const auto paramSets = expandCongestionSpec(spec);
  auto points = runSweepParallel(
      m, paramSets,
      [&opts](const backend::MachineConfig& mc, const CongestionParams& p) {
        return runCongestionPoint(mc, p, coreOptions(opts));
      },
      opts.jobs);
  for (const auto& pt : points) {
    COMB_LOG(Debug) << machine.name << " congestion "
                    << congestionPatternName(pt.pattern)
                    << " nodes=" << pt.nodes
                    << " agg_bw=" << toMBps(pt.bandwidthBps)
                    << " MB/s min_node_bw=" << toMBps(pt.minNodeBandwidthBps)
                    << " MB/s qdrops=" << pt.switches.dropsQueue
                    << " stalls=" << pt.switches.creditStalls;
  }
  return points;
}

RepRun<CongestionPoint> runCongestionPointReps(
    const backend::MachineConfig& machine, const CongestionParams& params,
    const RunOptions& opts) {
  return runPointRepsWith<CongestionPoint>(
      machine, opts, [&](const backend::MachineConfig& m) {
        return runCongestionPoint(m, params, coreOptions(opts));
      });
}

std::vector<RepRun<CongestionPoint>> runCongestionSweepReps(
    const backend::MachineConfig& machine,
    const SweepSpec<CongestionParams>& spec, const RunOptions& opts) {
  validateRepPolicy(opts.rep);
  const auto paramSets = expandCongestionSpec(spec);
  std::vector<RepRun<CongestionPoint>> runs(paramSets.size());
  parallelFor(paramSets.size(), opts.jobs, [&](std::size_t i) {
    runs[i] = runCongestionPointReps(machine, paramSets[i], opts);
  });
  return runs;
}

}  // namespace comb::bench
