#include "comb/congestion.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

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

std::string Method<CongestionParams>::describe(const CongestionPoint& p) {
  std::ostringstream os;
  os << "congestion " << congestionPatternName(p.pattern)
     << " nodes=" << p.nodes << " agg_bw=" << toMBps(p.bandwidthBps)
     << " MB/s min_node_bw=" << toMBps(p.minNodeBandwidthBps)
     << " MB/s qdrops=" << p.switches.dropsQueue
     << " stalls=" << p.switches.creditStalls;
  return os.str();
}

CongestionPoint Method<CongestionParams>::measure(
    backend::SimCluster& cluster, const CongestionParams& params) {
  const int n = cluster.nodeCount();
  std::vector<CongestionNodeResult> nodes(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r)
    cluster.launch(r,
                   storeInto(congestionNodeOn(cluster.proc(r), params,
                                              cluster.proc(r).mpi().world()),
                             nodes[r]),
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
  return point;
}

}  // namespace comb::bench
