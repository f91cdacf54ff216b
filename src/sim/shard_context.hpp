// ShardContext: the per-shard scheduling surface of the discrete-event
// core — what events, NICs, host models, transports and MiniMPI talk to.
//
// A ShardContext owns a virtual clock, an event queue, the processes
// spawned onto it, a metrics registry and (optionally) a trace log.
// Simulated processes are coroutines (sim::Task<void>); they advance
// virtual time by awaiting delays or synchronization objects (Trigger,
// Channel, the host CPU model, ...). Execution *within one shard* is
// single-threaded and bit-reproducible: same program, same seed, same
// event order.
//
// Two ways to drive a context:
//   * standalone — run()/step(), the classic serial simulator. Every
//     unit test and micro-benchmark drives a single context this way,
//     and a single-shard sim::Executor takes the identical code path, so
//     `--sim-jobs 1` is bit-identical to the pre-PDES serial core.
//   * sharded — owned by a sim::Executor (sim/executor.hpp), which
//     partitions the machine's nodes over several contexts and advances
//     them in conservative-lookahead time windows. Events that must run
//     on another shard (cross-shard packet deliveries) are posted as
//     timestamped channel messages via postRemote(); the lookahead bound
//     guarantees every such message lands beyond the current window, so
//     no shard ever receives an event in its past.
//
// Determinism contract (see docs/parallel_sim.md): within a shard, event
// order is (time, local seq) exactly as in the serial core. Remote
// messages are folded in at window boundaries sorted by their packed
// (time, seq, src) key, so a parallel run is a pure function of
// (program, partition, lookahead) — independent of thread scheduling or
// worker count.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/units.hpp"
#include "sim/event_queue.hpp"
#include "sim/mailbox.hpp"
#include "sim/task.hpp"
#include "sim/tracelog.hpp"

namespace comb::sim {

class Executor;

class ShardContext {
 public:
  /// A standalone (single-shard, serial) context. Executor-owned shards
  /// are created through Executor and carry their shard id.
  ShardContext() = default;
  ShardContext(const ShardContext&) = delete;
  ShardContext& operator=(const ShardContext&) = delete;
  ~ShardContext();

  /// Current virtual time of this shard, in seconds.
  Time now() const { return now_; }

  /// Shard index within the owning Executor (0 for a standalone context).
  int shard() const { return shardId_; }
  /// The owning Executor; nullptr for a standalone context.
  Executor* executor() const { return executor_; }
  /// True when this context belongs to a multi-shard Executor — i.e.
  /// cross-shard posts are possible and remote components must not be
  /// touched directly.
  bool sharded() const { return sharded_; }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0). Takes
  /// any callable an event closure can hold (see sim/inplace_fn.hpp) and
  /// forwards it straight into the event pool — no intermediate EventFn.
  template <typename F>
    requires std::is_constructible_v<EventFn, F&&>
  EventHandle schedule(Time delay, F&& fn) {
    COMB_ASSERT(delay >= 0.0, "negative event delay");
    return queue_.push(now_ + delay, std::forward<F>(fn));
  }
  /// Schedule `fn` at absolute virtual time `when` (>= now()).
  template <typename F>
    requires std::is_constructible_v<EventFn, F&&>
  EventHandle scheduleAt(Time when, F&& fn) {
    COMB_ASSERT(when >= now_, "scheduling into the past");
    return queue_.push(when, std::forward<F>(fn));
  }

  /// Post an event onto another shard at absolute time `when`. The
  /// message is appended to the (this, dst) mailbox ring — a plain
  /// store, no lock — and folded into `dst`'s queue at the next window
  /// boundary, ordered by its packed (time, seq, src) key. `when` must
  /// respect the conservative lookahead: it may not fall inside the
  /// window `dst` is currently executing (asserted against the
  /// executor-published per-shard bound — a violation means a
  /// cross-shard interaction faster than the certified lookahead matrix
  /// entry, i.e. a partitioning bug). Posting to self (or from a
  /// standalone context) degenerates to scheduleAt.
  template <typename F>
    requires std::is_constructible_v<EventFn, F&&>
  void postRemote(ShardContext& dst, Time when, F&& fn) {
    if (&dst == this || !sharded_) {
      dst.scheduleAt(when, std::forward<F>(fn));
      return;
    }
    COMB_ASSERT(when >= shardBounds_[static_cast<std::size_t>(dst.shardId_)],
                "cross-shard post violates the lookahead bound");
    outRings_[static_cast<std::size_t>(dst.shardId_)].push(
        when, nextRemoteSeq_++, static_cast<std::uint32_t>(shardId_),
        std::forward<F>(fn));
  }

  /// Launch a simulated process. The coroutine starts at the current
  /// virtual time (before run() it starts at t = 0 when run() begins).
  /// The context owns the coroutine; exceptions it throws abort the
  /// simulation and are rethrown from run()/step() (or from
  /// Executor::run for executor-owned shards).
  void spawn(Task<void> process, std::string name = {});

  /// Drive this context standalone: run until the event queue drains or
  /// `until` is reached (events at exactly `until` still run). Returns
  /// the final virtual time. Executor-owned shards are driven by the
  /// Executor instead.
  Time run(Time until = std::numeric_limits<Time>::infinity());

  /// Execute a single event; returns false when none are pending.
  bool step();

  /// Number of processes spawned on this shard that have not finished.
  std::size_t liveProcesses() const { return liveProcesses_; }
  std::uint64_t eventsExecuted() const { return eventsExecuted_; }
  std::uint64_t eventsScheduled() const { return queue_.scheduledCount(); }

  /// Optional hook invoked before each event executes — used by the trace
  /// tests to record exact event ordering.
  using TraceFn = std::function<void(Time, std::uint64_t /*eventIndex*/)>;
  void setTrace(TraceFn fn) { trace_ = std::move(fn); }

  /// Attach a structured trace log (see sim/tracelog.hpp). Instrumented
  /// components emit through emitTrace*(); pass nullptr to detach. Detached,
  /// every emitter below is a single pointer test. Under an Executor each
  /// shard carries its own log; sim::mergeTraceLogs folds them into one
  /// timeline after the run.
  void attachTraceLog(TraceLog* log) { traceLog_ = log; }
  TraceLog* traceLog() const { return traceLog_; }
  bool tracing() const { return traceLog_ != nullptr; }
  void emitTrace(TraceCategory cat, int node, std::string_view label,
                 double a = 0, double b = 0) {
    if (traceLog_) traceLog_->emit(now_, cat, node, label, a, b);
  }
  /// Like emitTrace but stamped at `t` (an emitter acting on behalf of a
  /// later instant, e.g. a link serializing a packet handed over early).
  void emitTraceAt(Time t, TraceCategory cat, int node, std::string_view label,
                   double a = 0, double b = 0) {
    if (traceLog_) traceLog_->emit(t, cat, node, label, a, b);
  }
  void emitTraceBegin(TraceCategory cat, int node, std::string_view label,
                      double a = 0) {
    if (traceLog_) traceLog_->beginSpan(now_, cat, node, label, a);
  }
  void emitTraceEnd(TraceCategory cat, int node, std::string_view label,
                    double a = 0) {
    if (traceLog_) traceLog_->endSpan(now_, cat, node, label, a);
  }
  /// Span with a known duration, stamped [now, now + dur).
  void emitTraceComplete(Time dur, TraceCategory cat, int node,
                         std::string_view label, double a = 0, double b = 0) {
    if (traceLog_) traceLog_->complete(now_, dur, cat, node, label, a, b);
  }
  /// Like emitTraceComplete but with an explicit start time (for emitters
  /// that compute a window, e.g. an ISR that starts after the current
  /// busy period).
  void emitTraceCompleteAt(Time start, Time dur, TraceCategory cat, int node,
                           std::string_view label, double a = 0,
                           double b = 0) {
    if (traceLog_) traceLog_->complete(start, dur, cat, node, label, a, b);
  }

  /// Metrics registry for this shard: components register named counters
  /// and histograms at construction and snapshot after a run. Always
  /// present (unlike the trace log) so increments never need a null
  /// check. Under an Executor, per-shard snapshots are merged by name
  /// (see metrics::mergeSnapshots) — a single-shard run snapshots the
  /// one registry exactly as the serial core always has.
  metrics::Registry& metrics() { return metrics_; }
  const metrics::Registry& metrics() const { return metrics_; }

  /// Awaitable: suspend the calling coroutine for `d` simulated seconds.
  /// A zero delay still round-trips through the event queue, which
  /// deterministically yields to other ready processes.
  auto delay(Time d);
  /// Awaitable: yield once (equivalent to delay(0)).
  auto yield();

 private:
  friend class Executor;

  struct Detached;
  Detached runProcess(Task<void> t, std::string name);
  void recordFailure(std::exception_ptr e, const std::string& name);
  void rethrowIfFailed();

  // --- Executor-side driving (see sim/executor.cpp) -----------------------
  /// Earliest pending local event time, or +inf when the queue is empty.
  Time nextPendingTime() {
    return queue_.empty() ? std::numeric_limits<Time>::infinity()
                          : queue_.nextTime();
  }
  /// Execute every local event with time < `bound` (one conservative
  /// window). Failures are recorded, not thrown — the Executor collects
  /// them deterministically across shards. Mailbox fold-in lives on the
  /// Executor (drainShard), which owns the rings.
  void runWindow(Time bound);

  Time now_ = 0.0;
  EventQueue queue_;
  std::uint64_t eventsExecuted_ = 0;
  std::size_t liveProcesses_ = 0;
  std::exception_ptr failure_;
  std::string failedProcess_;
  TraceFn trace_;
  TraceLog* traceLog_ = nullptr;
  metrics::Registry metrics_;

  // --- sharding state (inert for standalone contexts) ---------------------
  Executor* executor_ = nullptr;
  int shardId_ = 0;
  bool sharded_ = false;
  std::uint64_t nextRemoteSeq_ = 0;
  /// Row of the Executor's current-parity mailbox ring set for this
  /// source shard: outRings_[d] is the (this, d) ring. Re-pointed by the
  /// window planner under the barrier and between runs; null for
  /// standalone contexts.
  MailboxRing* outRings_ = nullptr;
  /// The Executor's per-shard window bounds (bounds_.data()), for the
  /// postRemote lookahead assert. Written by the window planner under
  /// the barrier, read-only during the run phase.
  const Time* shardBounds_ = nullptr;
};

/// RAII span: begins on construction, ends (same label, same track) on
/// destruction at the then-current virtual time. Safe when no log is
/// attached. The label must outlive the scope (string literals do).
class TraceScope {
 public:
  TraceScope(ShardContext& sim, TraceCategory cat, int node,
             std::string_view label, double a = 0)
      : sim_(sim), cat_(cat), node_(node), label_(label) {
    sim_.emitTraceBegin(cat_, node_, label_, a);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;
  ~TraceScope() { sim_.emitTraceEnd(cat_, node_, label_); }

 private:
  ShardContext& sim_;
  TraceCategory cat_;
  int node_;
  std::string_view label_;
};

namespace detail {

struct DelayAwaiter {
  ShardContext& sim;
  Time d;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim.schedule(d, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}
};

}  // namespace detail

inline auto ShardContext::delay(Time d) {
  return detail::DelayAwaiter{*this, d};
}
inline auto ShardContext::yield() { return delay(0); }

}  // namespace comb::sim
