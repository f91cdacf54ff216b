#include "backend/sim_cluster.hpp"

#include <algorithm>

#include "backend/stacks.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "nic/reliable_link.hpp"
#include "transport/reliability.hpp"

namespace comb::backend {

namespace {
/// The partition grain: nodes per edge switch (fat-tree leaf) or per
/// dragonfly group, 1 for the single star. Blocks of this size never
/// split across shards, so every intra-leaf/intra-group hop stays
/// shard-local and only trunk traffic crosses.
int partitionBlockNodes(const MachineConfig& cfg) {
  const net::TopologyConfig& t = cfg.fabric.topo;
  switch (t.kind) {
    case net::TopologyKind::SingleSwitch:
      return 1;
    case net::TopologyKind::FatTree:
      return t.nodesPerSwitch;
    case net::TopologyKind::Dragonfly:
      return t.nodesPerSwitch * t.routersPerGroup;
  }
  return 1;
}
}  // namespace

sim::ExecutorOptions SimCluster::executorOptions(const MachineConfig& cfg,
                                                 int nodes, int simJobs,
                                                 int workers,
                                                 sim::AffinityPolicy affinity) {
  COMB_REQUIRE(nodes >= 1, "cluster needs at least one node");
  COMB_REQUIRE(simJobs >= 1, "sim-jobs must be >= 1");
  const int grain = partitionBlockNodes(cfg);
  const int blocks = (nodes + grain - 1) / grain;
  sim::ExecutorOptions opts;
  opts.shards = std::min(simJobs, std::max(blocks, 1));
  // Lookahead: every link of the fabric — node links and trunks alike —
  // shares cfg.fabric.link.latency (Topology scales only the trunk
  // *rate*). The constructor cross-checks this against the built fabric.
  opts.lookahead = cfg.fabric.link.latency;
  opts.workers = workers;
  opts.affinity = affinity;
  return opts;
}

int SimCluster::shardOf(int rank) const {
  COMB_REQUIRE(rank >= 0 && rank < nodeCount(), "rank out of range");
  const int block = rank / blockNodes_;
  return static_cast<int>(static_cast<long long>(block) *
                          exec_.shardCount() / blocks_);
}

SimCluster::SimCluster(MachineConfig cfg, int nodeCount, int simJobs,
                       int workers, sim::AffinityPolicy affinity)
    : cfg_(std::move(cfg)),
      blockNodes_(partitionBlockNodes(cfg_)),
      blocks_(std::max((nodeCount + blockNodes_ - 1) /
                           std::max(blockNodes_, 1),
                       1)),
      exec_(executorOptions(cfg_, nodeCount, simJobs, workers, affinity)) {
  // All wiring happens on shard 0 (the construction context); for
  // sharded runs, bindShards below re-homes every component to its
  // owning shard before the first event fires.
  fabric_ = std::make_unique<net::Fabric>(exec_.shard(0), cfg_.fabric);
  // Capacity is topology-aware: ports/2 nodes on the single star (each
  // node takes an uplink input and a downlink output), bounded by group
  // size for dragonfly, unbounded for the lazily-grown fat-tree.
  const int capacity = fabric_->capacityNodes();
  COMB_REQUIRE(capacity < 0 || nodeCount <= capacity,
               strFormat("cluster of %d nodes exceeds fabric capacity %d",
                         nodeCount, capacity));

  // Two passes: the fabric needs delivery sinks at addNode() time, but the
  // endpoints that own the sinks need their node ids. Register
  // trampolines that forward to the endpoint created in pass two.
  for (int i = 0; i < nodeCount; ++i) {
    nodes_.emplace_back();
    const net::NodeId id = fabric_->addNode([this, i](net::Packet p) {
      nodes_[static_cast<std::size_t>(i)].endpoint->deliver(std::move(p));
    });
    COMB_ASSERT(id == i, "fabric node ids must be dense");
  }

  if (exec_.parallel()) {
    // The lookahead Executor was built with must bound every link of the
    // fabric that actually got wired.
    COMB_ASSERT(fabric_->minLinkLatency() >= exec_.lookahead(),
                "fabric link latency below the executor lookahead");
    fabric_->bindShards([this](net::NodeId id) {
      return &exec_.shard(shardOf(static_cast<int>(id)));
    });
    // With every link and egress port homed, the wired topology defines
    // the per-pair channel bounds: latency plus header serialization of
    // each link toward each egress shard of its next-hop switch.
    // setLookaheadMatrix certifies every entry against the scalar floor
    // asserted above and takes the min-plus closure, so far-apart shard
    // pairs (different leaves, different dragonfly groups) get windows
    // as wide as the real multi-hop path, not the single-link floor.
    exec_.setLookaheadMatrix(
        fabric_->shardLookaheadMatrix(exec_.shardCount()));
  }

  COMB_REQUIRE(cfg_.cpusPerNode >= 1, "need at least one CPU per node");
  COMB_REQUIRE(cfg_.nicCpu >= 0 && cfg_.nicCpu < cfg_.cpusPerNode,
               "nicCpu outside [0, cpusPerNode)");
  for (int i = 0; i < nodeCount; ++i) {
    Node& node = nodes_[static_cast<std::size_t>(i)];
    sim::ShardContext& ctx = shardFor(i);
    for (int c = 0; c < cfg_.cpusPerNode; ++c)
      node.cpus.push_back(std::make_unique<host::Cpu>(
          ctx, strFormat("cpu%d.%d", i, c), i, cfg_.noise));
    host::Cpu& appCpu = *node.cpus[0];
    host::Cpu& nicCpu = *node.cpus[static_cast<std::size_t>(cfg_.nicCpu)];
    node.endpoint = stackRow(cfg_.kind).makeEndpoint(
        {ctx, appCpu, nicCpu, *fabric_, i, cfg_});
    node.mpi = std::make_unique<mpi::Mpi>(ctx, *node.endpoint, i, nodeCount);
    node.proc = std::make_unique<SimProc>(ctx, appCpu, *node.mpi,
                                          cfg_.secondsPerWorkIter);
  }
}

SimCluster::~SimCluster() = default;

SimProc& SimCluster::proc(int rank) {
  COMB_REQUIRE(rank >= 0 && rank < nodeCount(), "rank out of range");
  return *nodes_[static_cast<std::size_t>(rank)].proc;
}

host::Cpu& SimCluster::cpu(int rank, int which) {
  COMB_REQUIRE(rank >= 0 && rank < nodeCount(), "rank out of range");
  auto& cpus = nodes_[static_cast<std::size_t>(rank)].cpus;
  COMB_REQUIRE(which >= 0 && which < static_cast<int>(cpus.size()),
               "cpu index out of range");
  return *cpus[static_cast<std::size_t>(which)];
}

transport::Endpoint& SimCluster::endpoint(int rank) {
  COMB_REQUIRE(rank >= 0 && rank < nodeCount(), "rank out of range");
  return *nodes_[static_cast<std::size_t>(rank)].endpoint;
}

mpi::Mpi& SimCluster::mpi(int rank) {
  COMB_REQUIRE(rank >= 0 && rank < nodeCount(), "rank out of range");
  return *nodes_[static_cast<std::size_t>(rank)].mpi;
}

void SimCluster::launch(int rank, sim::Task<void> process, std::string name) {
  COMB_REQUIRE(rank >= 0 && rank < nodeCount(), "rank out of range");
  if (name.empty()) name = strFormat("rank%d", rank);
  shardFor(rank).spawn(std::move(process), std::move(name));
}

sim::TraceLog& SimCluster::enableTracing(std::size_t capacity) {
  if (traceLogs_.empty()) {
    for (int s = 0; s < exec_.shardCount(); ++s) {
      traceLogs_.push_back(std::make_unique<sim::TraceLog>(capacity));
      exec_.shard(s).attachTraceLog(traceLogs_.back().get());
    }
  }
  return *traceLogs_.front();
}

std::size_t SimCluster::traceDropped() const {
  std::size_t n = 0;
  for (const auto& log : traceLogs_)
    if (log) n += log->dropped();
  return n;
}

std::unique_ptr<sim::TraceLog> SimCluster::releaseTraceLog() {
  for (int s = 0; s < exec_.shardCount(); ++s)
    exec_.shard(s).attachTraceLog(nullptr);
  auto merged = sim::TraceLog::merge(std::move(traceLogs_));
  traceLogs_.clear();
  return merged;
}

net::FaultCounters SimCluster::faultCounters() const {
  net::FaultCounters c = fabric_->linkFaultCounters();
  for (const auto& node : nodes_) {
    const nic::ReliableLink& link = node.endpoint->link();
    c.retransmits += link.retransmits();
    c.timeoutWakeups += link.timeoutWakeups();
    c.duplicatesFiltered += link.duplicatesFiltered();
  }
  return c;
}

void SimCluster::run() {
  try {
    exec_.run();
  } catch (transport::RetryBudgetExhausted& e) {
    e.fault = faultCounters();  // the run's counters up to the collapse
    throw;
  }
  COMB_ASSERT(exec_.liveProcesses() == 0,
              "simulation drained with suspended processes (deadlock)");
  // A no-route drop is a fabric wiring bug, never a legitimate outcome —
  // it used to be just a log line, letting miswired fabrics sail through
  // goldens silently.
  COMB_ASSERT(fabric_->switchTotals().dropsNoRoute == 0,
              "switch dropped packets with no route (miswired fabric)");
}

}  // namespace comb::backend
