// Congestion extension: many-node traffic patterns over the multi-switch
// fabric. Not part of the original COMB suite — COMB measures a single
// pair in isolation; this extension asks how the same stacks behave when
// the fabric itself is contended (finite switch queues, oversubscribed
// trunks, incast hot spots), which is where overlap-friendly stacks are
// claimed to pay off.
//
// Three patterns, all built from the COMB polling primitive (work loop +
// non-blocking completion tests):
//
//   incast      every node sends all of its messages to node 0
//   hotspot     half of each node's messages target node 0, the rest a
//               ring neighbour (background load on top of a hot spot)
//   all-to-all  pairwise exchange: message k goes to (rank+1+k') mod N,
//               each node both sends and receives the same volume
//
// Per-node results (sender goodput, availability) are kept alongside the
// aggregates so the figures can show the *distribution* collapsing under
// contention, not just the mean.
#pragma once

#include <algorithm>
#include <vector>

#include "comb/polling.hpp"  // detail::compactPool, params.hpp
#include "comb/runner.hpp"
#include "common/error.hpp"
#include "mpi/request.hpp"
#include "net/topology.hpp"
#include "sim/task.hpp"

namespace comb::bench {

enum class CongestionPattern { Incast, Hotspot, AllToAll };

const char* congestionPatternName(CongestionPattern p);

struct CongestionParams {
  /// Cluster size — the primary sweep axis (64 / 256 / 1024 in the
  /// extension figures). Must match the communicator the pattern runs on.
  std::uint64_t nodes = 64;
  /// Per-message payload. The default is past every stack's eager
  /// threshold so the fabric carries real rendezvous traffic.
  Bytes msgBytes = 64 * 1024;
  /// Messages each sender contributes to the pattern.
  int messagesPerSender = 4;
  /// Posted-receive window and in-flight send cap per node.
  int window = 8;
  /// Work-loop iterations between completion polls (same meaning as the
  /// polling method's primary variable).
  std::uint64_t pollInterval = 50'000;
  CongestionPattern pattern = CongestionPattern::Incast;
  mpi::Tag dataTag = 1;
};

/// Destination list for `rank` under the pattern (empty when the rank
/// only receives). Pure function of (pattern, nodes, rank) so every node
/// — and every test — can derive the traffic matrix independently. Never
/// contains `rank` itself.
std::vector<int> congestionDests(const CongestionParams& p, int rank);

/// Messages `rank` will receive: the column sum of the traffic matrix.
std::uint64_t congestionExpectedRecvs(const CongestionParams& p, int rank);

struct CongestionNodeResult {
  int rank = 0;
  /// Delivered send share, messagesSent*msgBytes / pattern makespan (0
  /// for pure receivers). Filled in by the point runner: a sender's local
  /// live time ends when its sends complete *locally*, which on an
  /// otherwise-idle uplink happens at wire speed no matter how contended
  /// the victim is — the makespan is what congestion actually stretches.
  double bandwidthBps = 0.0;
  /// Work-loop availability: polls*pollInterval*secondsPerIter is the
  /// exact dry-run time (env.work is linear in iterations), so no
  /// separate N-node dry pass is needed.
  double availability = 0.0;
  Time liveTime = 0.0;
  std::uint64_t messagesSent = 0;
  std::uint64_t messagesReceived = 0;
  std::uint64_t polls = 0;
};

struct CongestionPoint {
  using Param = CongestionParams;
  std::uint64_t nodes = 0;
  Bytes msgBytes = 0;
  CongestionPattern pattern = CongestionPattern::Incast;
  /// Aggregate delivered bandwidth: total payload bytes injected by all
  /// senders / makespan. The watched metric for the statistical gate.
  double bandwidthBps = 0.0;
  /// Sender-goodput distribution (senders only; incast's per-sender share
  /// of the victim's downlink is the headline number).
  double minNodeBandwidthBps = 0.0;
  double meanNodeBandwidthBps = 0.0;
  /// Availability over all nodes (every node runs the work loop).
  double availability = 0.0;
  double minAvailability = 0.0;
  /// Slowest node's live time — the pattern's completion time.
  Time makespan = 0.0;
  std::uint64_t messagesDelivered = 0;
  /// Rank-ordered per-node series for the distribution figures.
  std::vector<double> nodeBandwidthBps;
  std::vector<double> nodeAvailability;
  /// Fabric-wide switch counters: tail drops / credit stalls / peak queue
  /// depth are the congestion signature.
  net::SwitchTotals switches;
  net::FaultCounters fault;
  /// Per-message MPI send/recv completion-latency tails (see
  /// PollingPoint) and executor load imbalance.
  TailSummary sendTail;
  TailSummary recvTail;
  double shardImbalance = 1.0;

  bool operator==(const CongestionPoint&) const = default;
};

/// One node's role: window of wildcard receives, windowed sends along the
/// pattern's destination list, COMB-style work loop between polls. All
/// ranks run the same code; the traffic matrix decides who sends.
template <typename Env, typename CommType>
sim::Task<CongestionNodeResult> congestionNodeOn(Env& env, CongestionParams p,
                                                 const CommType& world) {
  const int n = world.size();
  COMB_REQUIRE(n >= 2, "congestion patterns need at least 2 nodes");
  COMB_REQUIRE(static_cast<std::uint64_t>(n) == p.nodes,
               "params.nodes must match the communicator size");
  COMB_REQUIRE(p.window >= 1, "window must be >= 1");
  COMB_REQUIRE(p.messagesPerSender >= 1, "messagesPerSender must be >= 1");
  auto& mpi = env.mpi();
  const int rank = world.rank();
  const auto dests = congestionDests(p, rank);
  const std::uint64_t expected = congestionExpectedRecvs(p, rank);

  CongestionNodeResult res;
  res.rank = rank;
  res.messagesSent = dests.size();
  res.messagesReceived = expected;

  // Fill the receive window before anyone is released to send, so the
  // measured unexpected-queue depth reflects fabric contention rather
  // than startup skew.
  std::vector<mpi::Request> recvs;
  std::uint64_t recvsPosted = 0;
  const std::uint64_t windowRecvs =
      std::min<std::uint64_t>(static_cast<std::uint64_t>(p.window), expected);
  recvs.reserve(windowRecvs);
  for (std::uint64_t k = 0; k < windowRecvs; ++k) {
    recvs.push_back(
        co_await mpi.irecv(world, mpi::kAnySource, p.dataTag, p.msgBytes));
    ++recvsPosted;
  }
  co_await mpi.barrier(world);

  std::vector<mpi::Request> sends;
  std::size_t nextSend = 0;
  std::uint64_t got = 0;
  std::uint64_t polls = 0;
  env.phaseBegin("congestion");
  const auto t0 = env.wtime();
  while (true) {
    // Top up the send window.
    while (sends.size() < static_cast<std::size_t>(p.window) &&
           nextSend < dests.size()) {
      sends.push_back(
          co_await mpi.isend(world, dests[nextSend], p.dataTag, p.msgBytes));
      ++nextSend;
    }
    co_await env.work(p.pollInterval);
    ++polls;
    if (!recvs.empty()) {
      auto done = co_await mpi.testsome(recvs);
      for (const std::size_t idx : done) {
        ++got;
        if (recvsPosted < expected) {
          recvs[idx] = co_await mpi.irecv(world, mpi::kAnySource, p.dataTag,
                                          p.msgBytes);
          ++recvsPosted;
        }
      }
    }
    if (!sends.empty()) {
      co_await mpi.testsome(sends);
      detail::compactPool(sends);
    }
    if (got == expected && nextSend == dests.size() && sends.empty()) break;
  }
  res.liveTime = env.wtime() - t0;
  env.phaseEnd("congestion");
  res.polls = polls;

  const double workTime = static_cast<double>(polls) *
                          static_cast<double>(p.pollInterval) *
                          env.secondsPerIter();
  res.availability = res.liveTime > 0 ? workTime / res.liveTime : 1.0;
  // bandwidthBps is filled in by the runner (it needs the makespan).

  // Every posted receive was consumed (we never over-post), so there is
  // nothing to cancel; the barrier keeps teardown collective.
  co_await mpi.barrier(world);
  co_return res;
}

/// The congestion row of the method table (comb/runner.hpp): a point
/// runs on a freshly built params.nodes-sized cluster whose fabric comes
/// from the machine's [topology] section; the cluster constructor
/// rejects node counts beyond the fabric's capacity.
template <>
struct Method<CongestionParams> {
  using Point = CongestionPoint;
  static constexpr auto axis = &CongestionParams::nodes;
  static constexpr const char* xlabel = "nodes";
  static int nodes(const CongestionParams& p) {
    COMB_REQUIRE(p.nodes >= 2 && p.nodes <= (1u << 20),
                 "congestion needs 2 <= nodes <= 2^20");
    return static_cast<int>(p.nodes);
  }
  static constexpr MetricDef<Point> metrics[] = {
      {"bandwidth_MBps", true,
       [](const Point& p) { return toMBps(p.bandwidthBps); }},
      {"min_node_bw_MBps", true,
       [](const Point& p) { return toMBps(p.minNodeBandwidthBps); }},
      {"availability", true, [](const Point& p) { return p.availability; }},
      {"queue_drops", false,
       [](const Point& p) {
         return static_cast<double>(p.switches.dropsQueue);
       }},
      {"credit_stalls", false,
       [](const Point& p) {
         return static_cast<double>(p.switches.creditStalls);
       }},
  };
  static std::string describe(const Point& p);
  static Point measure(backend::SimCluster& cluster, const CongestionParams& p);
};

}  // namespace comb::bench
