// Executor: top-level driver for one simulation run, serial or sharded.
//
// The Executor owns N ShardContexts and advances them together in
// conservative time windows (classic time-window / LBTS PDES).
// Components never see the Executor on the hot path — they schedule on
// their shard's ShardContext; the Executor only decides *when each shard
// may run* and carries cross-shard messages between windows.
//
// Steady state (multi-shard): a persistent worker team — the calling
// thread plus workers-1 long-lived threads, optionally pinned by an
// affinity policy — crosses a lock-free EpochBarrier
// (sim/window_barrier.hpp) once per window. Cross-shard mail rides two
// sets of per-pair mailbox rings (sim/mailbox.hpp), indexed by window
// parity: window k posts into set k mod 2 while its shards drain the
// set window k-1 filled. Each worker, for each of its shards d:
//
//   1. drains the previous parity's rings targeting d into d's queue,
//      sorted by the packed (time, seq, src) key — deterministic;
//   2. runs d's local events with time < bound_d; cross-shard messages
//      append to the current parity's rings — postRemote is a plain
//      store, no lock;
//   3. publishes d's earliest pending local event time T_d.
//
// Then the crossing. Its completion (planWindow, run by the last
// arriver) lowers each T_d by the earliest `when` in the rings just
// written to d and computes every shard's next window bound from the
// lookahead matrix,
//        bound_d = min( cap, min over all s of T_s + L[s][d] ),
// the per-shard LBTS (L[d][d] is d's min feedback cycle: d's own
// earliest event can bounce off a neighbor and return) — or flags
// termination when min T_s >= cap. Otherwise it flips the parity.
// Counting in-flight mail gives the T_d, bounds and windows of a fold-in
// before the crossing, and d folds that mail in before it runs the next
// window, so its event order is that of an eager fold-in too. On
// termination each worker folds in the mail still in the rings (posted
// past `until`, or before run()) and crosses once more; posts between
// runs go to parity 0, which the next run's first crossing reads.
//
// L is the min-plus closure of the per-pair direct channel lookahead
// matrix (setLookaheadMatrix): L[s][d] lower-bounds the virtual-time
// distance of *any* influence from shard s to shard d, along direct
// edges and through intermediaries alike. An event shard s runs at
// t >= T_s can therefore only produce effects on d at >= t + L[s][d]
// >= bound_d — strictly beyond d's window (postRemote asserts the bound
// on every message). Every entry must be >= the scalar lookahead, which
// stays the certified global floor; when no matrix is installed the
// executor uses that scalar for every pair, which is the pre-matrix
// behavior with per-shard (instead of global) bounds.
//
// Worker threads are a pure performance knob: S shards split
// contiguously over W = min(shards, workers) workers, and results depend
// only on (program, partition, lookahead matrix) — never on W, affinity
// or thread scheduling. shards == 1 bypasses all of this: run() forwards
// to the single context's classic serial loop, bit-identical to the
// pre-PDES core.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"
#include "sim/mailbox.hpp"
#include "sim/shard_context.hpp"
#include "sim/window_barrier.hpp"

namespace comb::sim {

/// CPU pinning for the executor's spawned worker threads (the calling
/// thread, which acts as worker 0, is never pinned — it may belong to a
/// sweep-level pool whose affinity is not the executor's to change).
enum class AffinityPolicy {
  None,     ///< leave placement to the OS scheduler (default)
  Compact,  ///< worker w -> cpu w mod ncpu: adjacent shards share caches
  Scatter,  ///< spread workers across the cpu range: one shard per
            ///< core/cache-domain when the host has room
};

const char* affinityPolicyName(AffinityPolicy p);
/// Parse "none" | "compact" | "scatter"; throws comb::ConfigError.
AffinityPolicy parseAffinityPolicy(std::string_view s);

struct ExecutorOptions {
  /// Number of shard contexts. Part of the determinism contract: a run's
  /// results are a function of the shard count and partition, so this is
  /// never silently reduced (unlike `workers`).
  int shards = 1;
  /// Conservative scalar lookahead in seconds — the certified global
  /// lower bound on every cross-shard interaction latency, and the floor
  /// every lookahead-matrix entry must respect. Required > 0 when
  /// shards > 1.
  Time lookahead = 0.0;
  /// Worker threads driving the shards. 0 = min(shards, hardware
  /// concurrency). Clamped to [1, shards]; affects wall time only.
  int workers = 0;
  /// Pinning policy for the spawned workers; wall time only.
  AffinityPolicy affinity = AffinityPolicy::None;
};

class Executor {
 public:
  explicit Executor(ExecutorOptions opts = {});
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int shardCount() const { return static_cast<int>(shards_.size()); }
  bool parallel() const { return shards_.size() > 1; }
  Time lookahead() const { return opts_.lookahead; }
  int workers() const { return workers_; }
  AffinityPolicy affinity() const { return opts_.affinity; }

  ShardContext& shard(int i) { return *shards_[static_cast<std::size_t>(i)]; }
  const ShardContext& shard(int i) const {
    return *shards_[static_cast<std::size_t>(i)];
  }

  /// Install the per-shard-pair direct channel lookahead matrix
  /// (row-major shards x shards; entry [s][d] = a lower bound on the
  /// virtual-time cost of any direct s -> d interaction; +inf when the
  /// pair has no direct channel; the diagonal is ignored). The executor
  /// takes the min-plus closure, so callers supply only the direct
  /// edges. Every finite entry must be >= the scalar lookahead (the
  /// certified floor — widening is the only legal direction). Call
  /// before run(); no-op for a single shard.
  void setLookaheadMatrix(std::vector<Time> direct);
  /// The closed matrix in effect (row-major shards x shards; the
  /// diagonal holds each shard's min feedback cycle through any other
  /// shard, +inf when none exists).
  const std::vector<Time>& lookaheadMatrix() const { return matrix_; }
  /// True once setLookaheadMatrix installed per-pair bounds ("matrix"
  /// provenance); false while every pair uses the scalar ("global-min").
  bool lookaheadFromMatrix() const { return matrixSet_; }
  /// The smallest cross-shard bound actually in effect: min finite
  /// off-diagonal entry of the closed matrix (= the scalar when no
  /// matrix is installed or nothing is connected).
  Time effectiveLookahead() const;

  /// Advance the whole simulation until every shard's queue drains or
  /// `until` is reached (events at exactly `until` still run, as in the
  /// serial core). Returns the final virtual time — the max over shards.
  /// Rethrows the first failure (lowest shard index) of any simulated
  /// process.
  Time run(Time until = std::numeric_limits<Time>::infinity());

  /// Virtual time reached so far (max over shards).
  Time now() const;
  /// Sum over shards.
  std::size_t liveProcesses() const;
  std::uint64_t eventsExecuted() const;
  /// Number of conservative windows executed by run() so far (0 for the
  /// single-shard fast path) — observability for tests and benches.
  std::uint64_t windowsExecuted() const { return windows_; }

  /// Load imbalance across shards: max per-shard events / mean per-shard
  /// events (1.0 = perfectly balanced; 1.0 for the serial core). A pure
  /// function of the deterministic per-shard event counts, so archives
  /// can stamp it into provenance. Meaningful after run().
  double shardImbalance() const;

  /// Merged view of every shard's metrics registry (see
  /// metrics::mergeSnapshots). Single-shard: the plain snapshot.
  metrics::Snapshot metricsSnapshot() const;

 private:
  static int computeWorkers(const ExecutorOptions& opts);

  /// Contiguous shard range [shardLo(w), shardHi(w)) owned by worker w.
  int shardLo(int w) const { return w * shardCount() / workers_; }
  int shardHi(int w) const { return (w + 1) * shardCount() / workers_; }

  /// Park-until-run loop of a spawned worker thread (w >= 1).
  void workerLoop(int w);
  /// One run()'s window loop, executed by every worker for its shards.
  void driveShards(int w);
  /// Barrier completion: lower each T_d by its in-flight mail, compute
  /// per-shard LBTS bounds for the next window and flip the parity, or
  /// set done_. Runs on exactly one thread per window.
  void planWindow();
  /// Fold shard d's inbound rings of one parity into its queue, sorted by
  /// the (time, seq, src) key.
  void drainShard(int d, int parity);
  /// drainShard, recording a failure on shard d instead of throwing.
  void drainShardOrFail(int d, int parity);
  /// Make `parity` the ring set every shard's postRemote appends to.
  void pointOutRings(int parity);

  MailboxRing& ring(int parity, int src, int dst) {
    return mail_[static_cast<std::size_t>(parity)]
                [static_cast<std::size_t>(src) * shards_.size() +
                 static_cast<std::size_t>(dst)];
  }

  ExecutorOptions opts_;
  int workers_ = 1;
  std::vector<std::unique_ptr<ShardContext>> shards_;

  /// Closed lookahead matrix, row-major S x S (diagonal 0). Filled with
  /// the scalar at construction; replaced by setLookaheadMatrix.
  std::vector<Time> matrix_;
  bool matrixSet_ = false;

  // --- window-loop state (multi-shard only) -------------------------------
  // Plain memory: every cross-thread access is separated by an
  // EpochBarrier crossing (see the window walkthrough above).
  /// T_d per shard, published after its run by the owning worker and
  /// lowered by planWindow.
  std::vector<Time> nextTimes_;
  /// Window bound per shard, written by planWindow; ShardContext keeps a
  /// pointer into this array for the postRemote assert.
  std::vector<Time> bounds_;
  /// Two ring sets (by window parity), each one mailbox ring per ordered
  /// shard pair, indexed src * S + dst.
  std::array<std::vector<MailboxRing>, 2> mail_;
  /// The ring set the current window posts into; the other one is being
  /// drained. Written only by planWindow and between runs.
  int parity_ = 0;
  /// Per-shard fold-in scratch (gather + sort); capacity is retained, so
  /// the steady state allocates nothing.
  std::vector<std::vector<RemoteEvent>> scratch_;
  // --- self-observability (multi-shard only) ------------------------------
  /// "exec.shard<k>.window_events": events the shard ran per window
  /// (deterministic — a pure function of the program and partition).
  /// Lives in shard k's registry; recorded by the owning worker only.
  std::vector<Histogram*> windowEvents_;
  /// "exec.w<w>.barrier_wait": wall-clock seconds worker w spent inside
  /// each barrier crossing (wall time only — excluded from determinism
  /// claims). Lives in the registry of the worker's first shard.
  std::vector<LatencyRecorder*> barrierWait_;

  Time cap_ = std::numeric_limits<Time>::infinity();
  bool done_ = false;
  /// Progress-failure (vanishing lookahead) raised by planWindow; rethrown
  /// on the calling thread after the loop stops.
  std::exception_ptr windowError_;
  std::uint64_t windows_ = 0;

  // --- persistent worker team ---------------------------------------------
  EpochBarrier barrier_;
  /// Spawned workers (workers_ - 1 threads; the caller is worker 0). They
  /// park on runGen_ between run() calls and exit when shutdown_ is set.
  std::vector<std::thread> team_;
  std::atomic<std::uint64_t> runGen_{0};
  std::atomic<bool> shutdown_{false};
};

}  // namespace comb::sim
