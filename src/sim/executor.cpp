#include "sim/executor.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace comb::sim {

namespace {

constexpr Time kInf = std::numeric_limits<Time>::infinity();

/// Best-effort pinning of a spawned worker thread. Failure (cpuset
/// restrictions, exotic hosts) is silently ignored — affinity is a
/// performance hint, never a correctness requirement.
void pinThread(std::thread& t, int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu), &set);
  (void)pthread_setaffinity_np(t.native_handle(), sizeof(set), &set);
#else
  (void)t;
  (void)cpu;
#endif
}

int affinityCpu(AffinityPolicy policy, int worker, int workers) {
  const int ncpu = hardwareJobs();
  switch (policy) {
    case AffinityPolicy::None:
      return -1;
    case AffinityPolicy::Compact:
      return worker % ncpu;
    case AffinityPolicy::Scatter: {
      const int stride = std::max(1, ncpu / std::max(workers, 1));
      return (worker * stride) % ncpu;
    }
  }
  return -1;
}

/// In-place min-plus (Floyd-Warshall) closure over an S x S matrix whose
/// diagonal starts at +inf: afterwards [s][d] (s != d) is the cheapest
/// s -> d path cost and [d][d] is the cheapest feedback cycle through d.
/// The cycle term is load-bearing for the window bounds: shard d's own
/// earliest event can influence a neighbor and bounce back, so d may only
/// run to T_d + cycle(d) no matter how far ahead every other shard is.
void closeMinPlus(std::vector<Time>& m, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t s = 0; s < n; ++s) {
      const Time sk = m[s * n + k];
      if (std::isinf(sk)) continue;
      for (std::size_t d = 0; d < n; ++d) {
        const Time via = sk + m[k * n + d];
        if (via < m[s * n + d]) m[s * n + d] = via;
      }
    }
  }
}

}  // namespace

const char* affinityPolicyName(AffinityPolicy p) {
  switch (p) {
    case AffinityPolicy::None:
      return "none";
    case AffinityPolicy::Compact:
      return "compact";
    case AffinityPolicy::Scatter:
      return "scatter";
  }
  return "none";
}

AffinityPolicy parseAffinityPolicy(std::string_view s) {
  if (s == "none") return AffinityPolicy::None;
  if (s == "compact") return AffinityPolicy::Compact;
  if (s == "scatter") return AffinityPolicy::Scatter;
  throw ConfigError("sim-affinity must be one of none|compact|scatter (got '" +
                    std::string(s) + "')");
}

int Executor::computeWorkers(const ExecutorOptions& opts) {
  int w = opts.workers > 0 ? opts.workers : hardwareJobs();
  return std::clamp(w, 1, std::max(opts.shards, 1));
}

Executor::Executor(ExecutorOptions opts)
    : opts_(opts),
      workers_(computeWorkers(opts)),
      barrier_(computeWorkers(opts)) {
  COMB_REQUIRE(opts_.shards >= 1, "Executor needs at least one shard");
  COMB_REQUIRE(opts_.shards == 1 || opts_.lookahead > 0.0,
               "multi-shard execution requires a positive lookahead");
  const auto n = static_cast<std::size_t>(opts_.shards);
  shards_.reserve(n);
  for (int i = 0; i < opts_.shards; ++i) {
    auto ctx = std::make_unique<ShardContext>();
    ctx->executor_ = this;
    ctx->shardId_ = i;
    ctx->sharded_ = opts_.shards > 1;
    shards_.push_back(std::move(ctx));
  }
  if (!parallel()) return;

  // Default matrix: the scalar for every pair. The closure fills the
  // diagonal with each shard's min feedback cycle (2 x scalar here).
  matrix_.assign(n * n, opts_.lookahead);
  for (std::size_t i = 0; i < n; ++i) matrix_[i * n + i] = kInf;
  closeMinPlus(matrix_, n);
  nextTimes_.assign(n, kInf);
  bounds_.assign(n, 0.0);
  for (auto& set : mail_) set.resize(n * n);
  scratch_.resize(n);
  for (auto& s : shards_) s->shardBounds_ = bounds_.data();
  pointOutRings(0);

  // Self-observability instruments, created once here so the window loop
  // never does a registry lookup. Each lives in a registry its owning
  // worker touches exclusively during a run, like every other per-shard
  // metric.
  windowEvents_.reserve(n);
  for (int i = 0; i < opts_.shards; ++i)
    windowEvents_.push_back(&shards_[static_cast<std::size_t>(i)]
                                 ->metrics()
                                 .histogram(strFormat("exec.shard%d.window_events", i),
                                            0.0, 1024.0, 64));
  barrierWait_.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w)
    barrierWait_.push_back(&shards_[static_cast<std::size_t>(shardLo(w))]
                                ->metrics()
                                .latency(strFormat("exec.w%d.barrier_wait", w)));

  // Persistent team: workers_ - 1 spawned threads (the run() caller is
  // worker 0). They are created once, park on runGen_ between runs, and
  // live until the destructor — a window barrier never pays thread
  // creation or a mutex/CV round-trip.
  team_.reserve(static_cast<std::size_t>(workers_ - 1));
  for (int w = 1; w < workers_; ++w) {
    team_.emplace_back([this, w] { workerLoop(w); });
    if (const int cpu = affinityCpu(opts_.affinity, w, workers_); cpu >= 0)
      pinThread(team_.back(), cpu);
  }
}

Executor::~Executor() {
  if (!team_.empty()) {
    shutdown_.store(true, std::memory_order_release);
    runGen_.fetch_add(1, std::memory_order_release);
    runGen_.notify_all();
    for (auto& t : team_) t.join();
  }
}

Time Executor::now() const {
  Time t = 0.0;
  for (const auto& s : shards_) t = std::max(t, s->now());
  return t;
}

std::size_t Executor::liveProcesses() const {
  std::size_t n = 0;
  for (const auto& s : shards_) n += s->liveProcesses();
  return n;
}

std::uint64_t Executor::eventsExecuted() const {
  std::uint64_t n = 0;
  for (const auto& s : shards_) n += s->eventsExecuted();
  return n;
}

double Executor::shardImbalance() const {
  if (!parallel()) return 1.0;
  std::uint64_t total = 0;
  std::uint64_t peak = 0;
  for (const auto& s : shards_) {
    const std::uint64_t e = s->eventsExecuted();
    total += e;
    peak = std::max(peak, e);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(peak) * static_cast<double>(shardCount()) /
         static_cast<double>(total);
}

metrics::Snapshot Executor::metricsSnapshot() const {
  std::vector<metrics::Snapshot> parts;
  parts.reserve(shards_.size());
  for (const auto& s : shards_) parts.push_back(s->metrics().snapshot());
  return metrics::mergeSnapshots(std::move(parts));
}

void Executor::setLookaheadMatrix(std::vector<Time> direct) {
  const std::size_t n = shards_.size();
  COMB_REQUIRE(direct.size() == n * n,
               "lookahead matrix must be shards x shards");
  if (n == 1) return;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      if (s == d) {
        direct[s * n + d] = kInf;  // closure fills in the min cycle
        continue;
      }
      const Time entry = direct[s * n + d];
      // The scalar lookahead is the certified floor (SimCluster checks it
      // against the fabric's minimum link latency); a matrix may widen
      // windows, never narrow them below the certified bound.
      COMB_REQUIRE(entry >= opts_.lookahead,
                   "lookahead matrix entry below the certified scalar floor");
    }
  }
  // Min-plus closure: influence can travel s -> k -> d, so the
  // conservative per-pair bound is the cheapest path, not the direct
  // edge. O(S^3), once per run setup.
  closeMinPlus(direct, n);
  matrix_ = std::move(direct);
  matrixSet_ = true;
}

Time Executor::effectiveLookahead() const {
  if (!parallel()) return opts_.lookahead;
  const std::size_t n = shards_.size();
  Time lo = kInf;
  for (std::size_t s = 0; s < n; ++s)
    for (std::size_t d = 0; d < n; ++d)
      if (s != d) lo = std::min(lo, matrix_[s * n + d]);
  return std::isinf(lo) ? opts_.lookahead : lo;
}

void Executor::pointOutRings(int parity) {
  parity_ = parity;
  for (auto& s : shards_) s->outRings_ = &ring(parity, s->shardId_, 0);
}

void Executor::planWindow() {
  const std::size_t n = shards_.size();
  Time tmin = kInf;
  bool failed = false;
  for (std::size_t i = 0; i < n; ++i) {
    // Mail posted in the window that just ran is still in its rings;
    // lowering T_i by it gives the T_i a fold-in before this crossing
    // would have published.
    for (std::size_t s = 0; s < n; ++s)
      nextTimes_[i] = std::min(
          nextTimes_[i],
          ring(parity_, static_cast<int>(s), static_cast<int>(i)).minWhen());
    tmin = std::min(tmin, nextTimes_[i]);
    // Read of another shard's failure flag: the owning worker's writes
    // happened before its barrier arrival, which happens before this
    // completion runs.
    failed = failed || shards_[i]->failure_ != nullptr;
  }
  if (failed || tmin >= cap_) {
    done_ = true;
    return;
  }
  // Per-shard LBTS: shard d may run to the earliest time any shard's
  // pending work could still influence it — including its own (the
  // diagonal holds d's min feedback cycle: d's next event can bounce off
  // a neighbor and come back). Wider than the classic global window
  // min(T) + lookahead whenever the early shards are far (in lookahead
  // distance) from d — and unbounded (the cap) when nothing can reach d.
  bool progress = false;
  for (std::size_t d = 0; d < n; ++d) {
    Time influence = kInf;
    for (std::size_t s = 0; s < n; ++s)
      influence = std::min(influence, nextTimes_[s] + matrix_[s * n + d]);
    // Derate by a few ulps: senders compute arrival times with a
    // different floating-point association ((start + occupy) + latency)
    // than this bound (T_s + matrix entry), so a post can land up to a
    // couple of ulps below the analytic LBTS. Shrinking a conservative
    // bound is always safe; the margin (~1e-18 at millisecond scales) is
    // sub-picosecond noise next to any real lookahead. The cap stays
    // exact so events at exactly `until` still run.
    if (!std::isinf(influence))
      influence -= 8 * std::numeric_limits<Time>::epsilon() * influence;
    const Time b = std::min(cap_, influence);
    bounds_[d] = b;
    progress = progress || nextTimes_[d] < b;
  }
  // Conservative-window progress requires that the earliest shard can run
  // at least its next event. With times in seconds and latencies down to
  // nanoseconds this holds for any plausible run; if virtual time ever
  // grows so large that the lookahead vanishes in rounding, no correct
  // window exists.
  if (!progress) {
    try {
      COMB_REQUIRE(false,
                   "lookahead vanished in floating-point rounding at t=" +
                       std::to_string(tmin));
    } catch (...) {
      windowError_ = std::current_exception();
    }
    done_ = true;
    return;
  }
  ++windows_;
  // The next window posts into the other ring set while each shard
  // drains this one.
  pointOutRings(parity_ ^ 1);
}

void Executor::drainShard(int d, int parity) {
  const std::size_t n = shards_.size();
  auto& scratch = scratch_[static_cast<std::size_t>(d)];
  for (std::size_t s = 0; s < n; ++s) {
    if (static_cast<int>(s) == d) continue;
    MailboxRing& box = ring(parity, static_cast<int>(s), d);
    if (!box.empty()) box.drainInto(scratch);
  }
  if (scratch.empty()) return;
  // Deterministic fold-in order: the packed (time, seq, src) key — unique
  // per message, so the unstable sort is still deterministic. Pushing in
  // this order assigns local queue sequence numbers in this order, so the
  // destination's event order (including ties with local events, which
  // the queue breaks by local seq) is independent of which worker routed
  // what and when.
  std::sort(scratch.begin(), scratch.end(),
            [](const RemoteEvent& a, const RemoteEvent& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.seq != b.seq) return a.seq < b.seq;
              return a.src < b.src;
            });
  EventQueue& queue = shards_[static_cast<std::size_t>(d)]->queue_;
  for (RemoteEvent& ev : scratch) {
    // Straight into the queue: the lookahead invariant already guarantees
    // when >= this shard's clock, and scheduleAt's now-check would be
    // comparing against a clock parked mid-window.
    queue.push(ev.when, std::move(ev.fn));
  }
  scratch.clear();
}

void Executor::drainShardOrFail(int d, int parity) {
  try {
    drainShard(d, parity);
  } catch (...) {
    // Fold-in can only throw on allocation failure; record it like a
    // process failure so the run stops deterministically.
    shards_[static_cast<std::size_t>(d)]->recordFailure(
        std::current_exception(), "executor:fold-in");
  }
}

void Executor::driveShards(int w) {
  using WallClock = std::chrono::steady_clock;
  const int lo = shardLo(w);
  const int hi = shardHi(w);
  LatencyRecorder& barrierWait = *barrierWait_[static_cast<std::size_t>(w)];
  for (int d = lo; d < hi; ++d)
    nextTimes_[static_cast<std::size_t>(d)] =
        shards_[static_cast<std::size_t>(d)]->nextPendingTime();
  for (;;) {
    // The one crossing per window: it ends the run phase that just
    // published T_d, and its completion plans the next window.
    const auto arrive = WallClock::now();
    barrier_.arriveAndWait([this] { planWindow(); });
    barrierWait.record(
        std::chrono::duration<double>(WallClock::now() - arrive).count());
    if (done_) {
      // Fold in the mail planWindow just read (posted in the last window,
      // or before run()), so a later run() sees it; then one more
      // crossing: no worker is still folding or recording when run()
      // returns and its caller reads the queues and registries.
      for (int d = lo; d < hi; ++d) drainShardOrFail(d, parity_);
      barrier_.arriveAndWait([] {});
      return;
    }
    for (int d = lo; d < hi; ++d) {
      ShardContext& s = *shards_[static_cast<std::size_t>(d)];
      // The previous window's mail: its sources are done writing it, and
      // planWindow already lowered T_d by it.
      drainShardOrFail(d, parity_ ^ 1);
      const std::uint64_t before = s.eventsExecuted();
      if (nextTimes_[static_cast<std::size_t>(d)] <
          bounds_[static_cast<std::size_t>(d)])
        s.runWindow(bounds_[static_cast<std::size_t>(d)]);
      // Window occupancy, idle windows included — the imbalance signal.
      windowEvents_[static_cast<std::size_t>(d)]->add(
          static_cast<double>(s.eventsExecuted() - before));
      nextTimes_[static_cast<std::size_t>(d)] = s.nextPendingTime();
    }
  }
}

void Executor::workerLoop(int w) {
  std::uint64_t seen = 0;
  for (;;) {
    // Park between runs: futex wait on the run generation, no spinning —
    // an idle executor (between sweep points, or after teardown of the
    // owning cluster) costs nothing.
    runGen_.wait(seen, std::memory_order_acquire);
    if (shutdown_.load(std::memory_order_acquire)) return;
    seen = runGen_.load(std::memory_order_acquire);
    driveShards(w);
  }
}

Time Executor::run(Time until) {
  // Single shard: the classic serial loop, byte-for-byte the pre-PDES
  // core — no windows, no barriers, no atomics anywhere on the path.
  if (!parallel()) return shards_[0]->run(until);

  // Events at exactly `until` must still run (serial-run semantics), but
  // the window loop uses a strict bound; the smallest representable time
  // past `until` turns the inclusive cap into an exclusive one.
  cap_ = std::isinf(until)
             ? until
             : std::nextafter(until, std::numeric_limits<Time>::infinity());
  done_ = false;
  windowError_ = nullptr;
  // Release the parked team (their first barrier arrival acquires this
  // fence, so the cap/done writes above are visible), then drive worker
  // 0's shards on the calling thread.
  runGen_.fetch_add(1, std::memory_order_release);
  runGen_.notify_all();
  driveShards(0);
  // Mail posted between runs goes to the ring set the next run's first
  // crossing reads.
  pointOutRings(0);

  // The final planWindow set done_ under the barrier, and every worker
  // folded in its mail and crossed once more after it, so all shard
  // state is visible here.
  if (windowError_) std::rethrow_exception(windowError_);
  // Deterministic failure selection: lowest shard index wins, same
  // convention as parallelFor and runSweepParallel.
  for (const auto& s : shards_) s->rethrowIfFailed();

  // Serial-run parity: a queue with events beyond `until` parks that
  // shard's clock at `until`.
  for (const auto& s : shards_) {
    if (!s->queue_.empty() && s->now_ < until) s->now_ = until;
  }
  return now();
}

}  // namespace comb::sim
