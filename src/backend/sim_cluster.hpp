// SimCluster: assembles a complete simulated machine — fabric, per-node
// CPU, NIC/transport endpoint, and MiniMPI instance — from a
// MachineConfig, and provides the per-process environment (SimProc) that
// the COMB benchmark templates run against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/machine.hpp"
#include "common/units.hpp"
#include "host/cpu.hpp"
#include "mpi/mpi.hpp"
#include "net/fabric.hpp"
#include "sim/executor.hpp"
#include "sim/shard_context.hpp"
#include "sim/task.hpp"
#include "transport/endpoint.hpp"

namespace comb::backend {

class SimCluster;

/// The per-process environment handed to benchmark code. Satisfies the
/// COMB backend concept (see comb/env.hpp): simulated time, a calibrated
/// work loop on the node's CPU, and the MiniMPI instance.
class SimProc {
 public:
  SimProc(sim::ShardContext& sim, host::Cpu& cpu, mpi::Mpi& mpi,
          double secondsPerIter)
      : sim_(&sim), cpu_(&cpu), mpi_(&mpi), spi_(secondsPerIter) {}

  Time wtime() const { return sim_->now(); }
  /// Awaitable: spin the calibrated delay loop for `iters` iterations.
  sim::Task<void> work(std::uint64_t iters) {
    return cpu_->compute(static_cast<double>(iters) * spi_);
  }
  double secondsPerIter() const { return spi_; }

  mpi::Mpi& mpi() { return *mpi_; }
  host::Cpu& cpu() { return *cpu_; }
  sim::ShardContext& simulator() { return *sim_; }
  int rank() const { return mpi_->rank(); }
  int size() const { return mpi_->size(); }

  /// Transport-activity versioning, used by reactive helper loops (the
  /// COMB support process responds "as fast as messages are consumed").
  std::uint64_t activityVersion() const {
    return mpi_->endpoint().activity().version();
  }
  /// Awaitable: completes once activityVersion() != seen.
  auto waitActivity(std::uint64_t seen) {
    return mpi_->endpoint().activity().changedSince(seen);
  }

  /// Benchmark-phase span markers ("post", "work", "wait", "dry", ...)
  /// for the trace-driven overlap audit and the per-phase latency
  /// recorders: while a phase is open, MPI completion latencies are also
  /// recorded into phase-suffixed distributions. `label` must outlive
  /// the span (use string literals).
  void phaseBegin(std::string_view label) {
    sim_->emitTraceBegin(sim::TraceCategory::Phase, rank(), label);
    mpi_->beginPhase(label);
  }
  void phaseEnd(std::string_view label) {
    sim_->emitTraceEnd(sim::TraceCategory::Phase, rank(), label);
    mpi_->endPhase();
  }

 private:
  sim::ShardContext* sim_;
  host::Cpu* cpu_;
  mpi::Mpi* mpi_;
  double spi_;
};

class SimCluster {
 public:
  /// `simJobs` shards the simulator core: nodes are partitioned into
  /// contiguous blocks aligned to the topology (whole leaf switches /
  /// dragonfly groups), each block set driven by one sim::ShardContext,
  /// with the fabric's minimum link latency as the conservative scalar
  /// lookahead floor and a per-shard-pair matrix derived from the wired
  /// topology (Fabric::shardLookaheadMatrix) widening the windows. 1
  /// (the default) is the classic serial core, bit-identical to the
  /// pre-executor simulator. The effective shard count is min(simJobs,
  /// partition blocks) — results are a pure function of it and the
  /// matrix. `workers` limits the threads driving the shards and
  /// `affinity` pins them (both wall time only; workers 0 = hardware
  /// concurrency).
  SimCluster(MachineConfig cfg, int nodes, int simJobs = 1, int workers = 0,
             sim::AffinityPolicy affinity = sim::AffinityPolicy::None);
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;
  ~SimCluster();

  sim::Executor& executor() { return exec_; }
  const sim::Executor& executor() const { return exec_; }
  /// Shard 0's context — THE simulator for serial (simJobs = 1) runs,
  /// where every component lives on it. Sharded runs should prefer
  /// executor() / the merged accessors below.
  sim::ShardContext& simulator() { return exec_.shard(0); }
  /// The shard driving `rank`'s node.
  sim::ShardContext& shardFor(int rank) { return exec_.shard(shardOf(rank)); }
  int shardOf(int rank) const;
  net::Fabric& fabric() { return *fabric_; }
  const MachineConfig& config() const { return cfg_; }
  int nodeCount() const { return static_cast<int>(nodes_.size()); }

  // Merged whole-machine views (identical to the shard-0 values for
  // serial runs).
  Time now() const { return exec_.now(); }
  std::uint64_t eventsExecuted() const { return exec_.eventsExecuted(); }
  metrics::Snapshot metricsSnapshot() const { return exec_.metricsSnapshot(); }
  /// Executor load imbalance (1.0 for the serial core); see
  /// sim::Executor::shardImbalance.
  double shardImbalance() const { return exec_.shardImbalance(); }

  SimProc& proc(int rank);
  /// CPU `which` of a node (0 = the application CPU).
  host::Cpu& cpu(int rank, int which = 0);
  transport::Endpoint& endpoint(int rank);
  mpi::Mpi& mpi(int rank);

  /// Spawn a process coroutine on `rank`'s environment.
  void launch(int rank, sim::Task<void> process, std::string name = {});

  /// Run the simulation to completion (all processes finished).
  void run();

  /// Aggregate fault-injection and reliability counters: link-level drops
  /// and corruptions plus per-node NIC retransmission work. All zero on a
  /// lossless fabric.
  net::FaultCounters faultCounters() const;

  /// Attach structured trace logs (owned by the cluster) — one per
  /// shard, each of `capacity`. Returns shard 0's log.
  sim::TraceLog& enableTracing(std::size_t capacity = 1 << 16);
  /// Shard 0's live log (the whole machine for serial runs; one shard's
  /// slice otherwise — use releaseTraceLog() for the merged timeline).
  sim::TraceLog* traceLog() {
    return traceLogs_.empty() ? nullptr : traceLogs_.front().get();
  }
  const sim::TraceLog* traceLog() const {
    return traceLogs_.empty() ? nullptr : traceLogs_.front().get();
  }
  /// Records dropped by the bounded rings, summed over every shard.
  std::size_t traceDropped() const;
  /// Detach every shard's log and return the merged, time-ordered
  /// timeline (a serial run's single log is returned unchanged), e.g. to
  /// keep it after the cluster is torn down.
  std::unique_ptr<sim::TraceLog> releaseTraceLog();

 private:
  struct Node {
    std::vector<std::unique_ptr<host::Cpu>> cpus;  // [0] = application CPU
    std::unique_ptr<transport::Endpoint> endpoint;
    std::unique_ptr<mpi::Mpi> mpi;
    std::unique_ptr<SimProc> proc;
  };

  static sim::ExecutorOptions executorOptions(const MachineConfig& cfg,
                                              int nodes, int simJobs,
                                              int workers,
                                              sim::AffinityPolicy affinity);

  MachineConfig cfg_;
  /// Partition: node i belongs to block i / blockNodes_; blocks spread
  /// contiguously over the shards. blockNodes_ is the topology's
  /// natural grain (nodes per leaf / per dragonfly group; 1 for the
  /// star) so a whole edge switch lands on one shard. Members precede
  /// exec_: shard count = min(simJobs, blocks_).
  int blockNodes_ = 1;
  int blocks_ = 1;
  sim::Executor exec_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<sim::TraceLog>> traceLogs_;
};

}  // namespace comb::backend
