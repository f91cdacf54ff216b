// Executor (sharded PDES core): serial fast path, conservative window
// advance, deterministic cross-shard fold-in by the packed
// (time, seq, src) key, and independence of results from the worker
// count. These are the contract tests behind docs/parallel_sim.md.
#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "sim/shard_context.hpp"

namespace comb::sim {
namespace {

/// Per-shard record of executed test events: (time, tag). Each shard
/// appends only to its own vector, so recording is race-free under any
/// worker count.
using Trace = std::vector<std::pair<Time, int>>;

ExecutorOptions options(int shards, Time lookahead, int workers = 0) {
  ExecutorOptions o;
  o.shards = shards;
  o.lookahead = lookahead;
  o.workers = workers;
  return o;
}

TEST(Executor, SingleShardTakesTheSerialPath) {
  Executor exec(options(1, 0.0));
  Trace trace;
  exec.shard(0).schedule(2.0, [&] { trace.emplace_back(2.0, 1); });
  exec.shard(0).schedule(1.0, [&] { trace.emplace_back(1.0, 0); });
  const Time end = exec.run();
  EXPECT_EQ(end, 2.0);
  EXPECT_EQ(exec.now(), 2.0);
  EXPECT_EQ(exec.eventsExecuted(), 2u);
  // No windows: the serial loop runs unchanged (bit-identity contract).
  EXPECT_EQ(exec.windowsExecuted(), 0u);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].second, 0);
  EXPECT_EQ(trace[1].second, 1);
}

TEST(Executor, SingleShardMatchesStandaloneContext) {
  auto program = [](ShardContext& ctx, Trace& trace) {
    for (int i = 0; i < 5; ++i)
      ctx.schedule(0.1 * i, [&trace, &ctx, i] {
        trace.emplace_back(ctx.now(), i);
        ctx.schedule(0.05, [&trace, &ctx, i] {
          trace.emplace_back(ctx.now(), 100 + i);
        });
      });
  };
  ShardContext serial;
  Trace serialTrace;
  program(serial, serialTrace);
  serial.run();

  Executor exec(options(1, 0.0));
  Trace execTrace;
  program(exec.shard(0), execTrace);
  exec.run();

  EXPECT_EQ(serialTrace, execTrace);
  EXPECT_EQ(serial.eventsExecuted(), exec.eventsExecuted());
  EXPECT_EQ(serial.now(), exec.now());
}

TEST(Executor, WindowedRunExecutesCrossShardPingPong) {
  // Two shards exchange messages spaced exactly one lookahead apart —
  // the minimal legal spacing, so every hop lands right on a window
  // boundary (the strictest alignment the invariant allows).
  constexpr Time kLookahead = 0.5;
  constexpr int kHops = 8;
  Executor exec(options(2, kLookahead));
  std::vector<Trace> traces(2);

  // hop(): runs on shard `s` and forwards to the other shard until
  // kHops messages have been delivered in total.
  struct Hop {
    Executor& exec;
    std::vector<Trace>& traces;
    void operator()(int s, int hop) const {
      ShardContext& ctx = exec.shard(s);
      traces[static_cast<std::size_t>(s)].emplace_back(ctx.now(), hop);
      if (hop + 1 >= kHops) return;
      ShardContext& dst = exec.shard(1 - s);
      Hop self{exec, traces};
      ctx.postRemote(dst, ctx.now() + kLookahead,
                     [self, s, hop] { self(1 - s, hop + 1); });
    }
  };
  exec.shard(0).schedule(0.0, [&] { Hop{exec, traces}(0, 0); });

  const Time end = exec.run();
  EXPECT_GT(exec.windowsExecuted(), 0u);
  EXPECT_DOUBLE_EQ(end, kLookahead * (kHops - 1));
  EXPECT_EQ(exec.eventsExecuted(), static_cast<std::uint64_t>(kHops));
  // Even hops on shard 0, odd hops on shard 1, times strictly increasing.
  ASSERT_EQ(traces[0].size(), static_cast<std::size_t>(kHops / 2));
  ASSERT_EQ(traces[1].size(), static_cast<std::size_t>(kHops / 2));
  for (std::size_t i = 0; i < traces[0].size(); ++i) {
    EXPECT_EQ(traces[0][i].second, static_cast<int>(2 * i));
    EXPECT_EQ(traces[1][i].second, static_cast<int>(2 * i + 1));
  }
}

TEST(Executor, FoldInOrdersRemoteEventsByPackedKey) {
  // Shards 1 and 2 each post two messages to shard 0, all carrying the
  // SAME timestamp. The fold-in must order them (time, seq, src):
  // both sources' seq-0 messages first (src 1 before src 2), then both
  // seq-1 messages. This makes the destination's event order a pure
  // function of the simulation, not of routing order.
  constexpr Time kLookahead = 1.0;
  Executor exec(options(3, kLookahead));
  Trace delivered;  // only shard 0 appends — single-threaded per shard

  const Time kWhen = 2.0;  // beyond the first window [0, 1)
  for (int src = 1; src <= 2; ++src) {
    ShardContext& ctx = exec.shard(src);
    ctx.schedule(0.0, [&exec, &ctx, &delivered, src, kWhen] {
      for (int k = 0; k < 2; ++k)
        ctx.postRemote(exec.shard(0), kWhen, [&delivered, src, k, kWhen] {
          delivered.emplace_back(kWhen, 10 * src + k);
        });
    });
  }
  exec.run();
  ASSERT_EQ(delivered.size(), 4u);
  // (seq 0, src 1), (seq 0, src 2), (seq 1, src 1), (seq 1, src 2).
  EXPECT_EQ(delivered[0].second, 10);
  EXPECT_EQ(delivered[1].second, 20);
  EXPECT_EQ(delivered[2].second, 11);
  EXPECT_EQ(delivered[3].second, 21);
}

TEST(Executor, ResultsIndependentOfWorkerCount) {
  // The same 4-shard program under workers = 1 (inline window loop) and
  // workers = 4 (thread pool) must produce identical traces: results are
  // a function of (program, partition, lookahead) only.
  constexpr Time kLookahead = 0.25;
  auto runWith = [&](int workers) {
    Executor exec(options(4, kLookahead, workers));
    std::vector<Trace> traces(4);
    for (int s = 0; s < 4; ++s) {
      ShardContext& ctx = exec.shard(s);
      Trace& mine = traces[static_cast<std::size_t>(s)];
      ctx.schedule(0.1 * s, [&exec, &ctx, &traces, s, kLookahead] {
        ShardContext& dst = exec.shard((s + 1) % 4);
        Trace& theirs = traces[static_cast<std::size_t>((s + 1) % 4)];
        ctx.postRemote(dst, ctx.now() + kLookahead, [&dst, &theirs, s] {
          theirs.emplace_back(dst.now(), 100 + s);
        });
      });
      ctx.schedule(0.1 * s, [&ctx, &mine, s] {
        mine.emplace_back(ctx.now(), s);
      });
    }
    exec.run();
    return traces;
  };
  // Note: the cross-shard closures above are no-ops by design — the trace
  // compares local event placement; remote delivery determinism is
  // covered by FoldInOrdersRemoteEventsByPackedKey.
  const auto serial = runWith(1);
  const auto pooled = runWith(4);
  EXPECT_EQ(serial, pooled);
}

TEST(Executor, UntilParksShardClocks) {
  Executor exec(options(2, 1.0));
  bool ran = false;
  exec.shard(0).schedule(0.5, [] {});
  exec.shard(1).schedule(5.0, [&ran] { ran = true; });
  const Time end = exec.run(2.0);
  EXPECT_FALSE(ran);  // beyond `until`
  EXPECT_DOUBLE_EQ(end, 2.0);
  EXPECT_DOUBLE_EQ(exec.now(), 2.0);
}

TEST(Executor, EventAtExactlyUntilStillRuns) {
  // Serial-run semantics: run(until) is inclusive of `until` itself.
  Executor exec(options(2, 1.0));
  bool ran = false;
  exec.shard(1).schedule(2.0, [&ran] { ran = true; });
  exec.run(2.0);
  EXPECT_TRUE(ran);
}

TEST(Executor, RequiresPositiveLookaheadWhenSharded) {
  EXPECT_THROW(Executor(options(2, 0.0)), Error);
  EXPECT_NO_THROW(Executor(options(1, 0.0)));
}

TEST(Executor, LookaheadMatrixClosureComputesPathsAndCycles) {
  // Directed 3-cycle of direct edges (0 -> 1 -> 2 -> 0, each 1.0, scalar
  // floor 1.0): the closure must fill the reverse directions with the
  // two-hop path and the diagonal with each shard's feedback cycle.
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  Executor exec(options(3, 1.0));
  EXPECT_FALSE(exec.lookaheadFromMatrix());
  std::vector<Time> direct(9, kInf);
  direct[0 * 3 + 1] = 1.0;
  direct[1 * 3 + 2] = 1.0;
  direct[2 * 3 + 0] = 1.0;
  exec.setLookaheadMatrix(std::move(direct));
  EXPECT_TRUE(exec.lookaheadFromMatrix());
  const auto& m = exec.lookaheadMatrix();
  EXPECT_DOUBLE_EQ(m[0 * 3 + 1], 1.0);  // direct edge kept
  EXPECT_DOUBLE_EQ(m[0 * 3 + 2], 2.0);  // closed two-hop path 0->1->2
  EXPECT_DOUBLE_EQ(m[1 * 3 + 0], 2.0);  // 1->2->0
  EXPECT_DOUBLE_EQ(m[2 * 3 + 1], 2.0);  // 2->0->1
  for (int d = 0; d < 3; ++d)  // min feedback cycle: around the ring
    EXPECT_DOUBLE_EQ(m[d * 3 + d], 3.0);
  EXPECT_DOUBLE_EQ(exec.effectiveLookahead(), 1.0);
}

TEST(Executor, LookaheadMatrixRejectsEntryBelowScalarFloor) {
  Executor exec(options(2, 1.0));
  // 0.5 < the certified scalar floor of 1.0: narrowing is never legal.
  std::vector<Time> direct = {0.0, 0.5, 1.0, 0.0};
  EXPECT_THROW(exec.setLookaheadMatrix(std::move(direct)), Error);
}

TEST(Executor, MatrixWindowsStillMatchScalarResults) {
  // A wider (but truthful) matrix may change window placement, never
  // results: the same ping-pong under the scalar and under a 2x matrix
  // must produce identical traces, with no more windows than the scalar.
  constexpr Time kLookahead = 0.5;
  auto runWith = [&](bool matrix) {
    Executor exec(options(2, kLookahead));
    if (matrix) {
      constexpr Time kInf = std::numeric_limits<Time>::infinity();
      std::vector<Time> direct = {kInf, 2 * kLookahead, 2 * kLookahead, kInf};
      exec.setLookaheadMatrix(std::move(direct));
    }
    Trace trace;  // only shard 0 appends
    struct Hop {
      Executor& exec;
      Trace& trace;
      void operator()(int s, int hop) const {
        ShardContext& ctx = exec.shard(s);
        if (s == 0) trace.emplace_back(ctx.now(), hop);
        if (hop >= 12) return;
        Hop self{exec, trace};
        // 2x spacing: legal under both the scalar and the 2x matrix.
        ctx.postRemote(exec.shard(1 - s), ctx.now() + 2 * kLookahead,
                       [self, s, hop] { self(1 - s, hop + 1); });
      }
    };
    exec.shard(0).schedule(0.0, [&] { Hop{exec, trace}(0, 0); });
    exec.run();
    return std::make_pair(trace, exec.windowsExecuted());
  };
  const auto scalar = runWith(false);
  const auto widened = runWith(true);
  EXPECT_EQ(scalar.first, widened.first);
  EXPECT_LE(widened.second, scalar.second);
}

TEST(Executor, OneBarrierCrossingPerWindow) {
  // Each window ends with one crossing, and the first crossing plans the
  // first window, so every worker records windows + 1 waits. (The final
  // crossing after termination is not recorded.)
  constexpr Time kLookahead = 0.5;
  Executor exec(options(2, kLookahead, 2));
  struct Hop {
    Executor& exec;
    void operator()(int s, int hop) const {
      if (hop >= 10) return;
      ShardContext& ctx = exec.shard(s);
      Hop self{exec};
      ctx.postRemote(exec.shard(1 - s), ctx.now() + kLookahead,
                     [self, s, hop] { self(1 - s, hop + 1); });
    }
  };
  exec.shard(0).schedule(0.0, [&exec] { Hop{exec}(0, 0); });
  exec.run();
  ASSERT_EQ(exec.workers(), 2);
  ASSERT_GT(exec.windowsExecuted(), 10u);
  for (int w = 0; w < 2; ++w)
    EXPECT_EQ(exec.shard(w)
                  .metrics()
                  .latency("exec.w" + std::to_string(w) + ".barrier_wait")
                  .count(),
              exec.windowsExecuted() + 1)
        << "worker " << w;
}

TEST(Executor, CrossShardMailBeyondUntilArrivesOnNextRun) {
  // Shard 0 posts to shard 1 in the last window of run(2.0), for t = 2.5
  // (past `until`): the event must wait for the next run() and then run
  // at its own time. A post made between the runs must arrive too.
  constexpr Time kLookahead = 1.0;
  auto runWith = [&](int workers) {
    Executor exec(options(2, kLookahead, workers));
    std::vector<Trace> traces(2);
    ShardContext& src = exec.shard(0);
    ShardContext& dst = exec.shard(1);
    Trace& delivered = traces[1];
    src.schedule(1.5, [&] {
      traces[0].emplace_back(src.now(), 0);
      src.postRemote(dst, src.now() + kLookahead,
                     [&] { delivered.emplace_back(dst.now(), 1); });
    });
    EXPECT_DOUBLE_EQ(exec.run(2.0), 2.0);
    EXPECT_TRUE(delivered.empty()) << "mail past `until` ran early";
    const std::uint64_t firstWindows = exec.windowsExecuted();
    src.postRemote(dst, 3.0, [&] { delivered.emplace_back(dst.now(), 2); });
    EXPECT_DOUBLE_EQ(exec.run(), 3.0);
    EXPECT_GT(exec.windowsExecuted(), firstWindows);
    EXPECT_EQ(exec.eventsExecuted(), 3u);
    return traces;
  };
  const auto serial = runWith(1);
  ASSERT_EQ(serial[0].size(), 1u);
  ASSERT_EQ(serial[1].size(), 2u);
  EXPECT_EQ(serial[1][0], std::make_pair(2.5, 1));
  EXPECT_EQ(serial[1][1], std::make_pair(3.0, 2));
  EXPECT_EQ(serial, runWith(2));
}

TEST(Executor, AffinityPolicyParsesAndRoundTrips) {
  EXPECT_EQ(parseAffinityPolicy("none"), AffinityPolicy::None);
  EXPECT_EQ(parseAffinityPolicy("compact"), AffinityPolicy::Compact);
  EXPECT_EQ(parseAffinityPolicy("scatter"), AffinityPolicy::Scatter);
  for (auto p : {AffinityPolicy::None, AffinityPolicy::Compact,
                 AffinityPolicy::Scatter})
    EXPECT_EQ(parseAffinityPolicy(affinityPolicyName(p)), p);
  EXPECT_THROW(parseAffinityPolicy("numa"), ConfigError);
}

TEST(Executor, PinnedWorkersProduceIdenticalResults) {
  // Affinity is a wall-time knob only. Also exercises the pthread pinning
  // path end to end (best-effort: it must never fail the run).
  constexpr Time kLookahead = 0.25;
  auto runWith = [&](AffinityPolicy policy) {
    ExecutorOptions o = options(4, kLookahead, 4);
    o.affinity = policy;
    Executor exec(o);
    std::vector<Trace> traces(4);
    for (int s = 0; s < 4; ++s) {
      ShardContext& ctx = exec.shard(s);
      Trace& mine = traces[static_cast<std::size_t>(s)];
      ctx.schedule(0.1 * s, [&ctx, &mine, s] {
        mine.emplace_back(ctx.now(), s);
      });
    }
    exec.run();
    return traces;
  };
  const auto none = runWith(AffinityPolicy::None);
  EXPECT_EQ(none, runWith(AffinityPolicy::Compact));
  EXPECT_EQ(none, runWith(AffinityPolicy::Scatter));
}

TEST(Executor, MergedMetricsSumAcrossShards) {
  Executor exec(options(2, 1.0));
  exec.shard(0).metrics().counter("events.test").add(3);
  exec.shard(1).metrics().counter("events.test").add(4);
  const auto snap = exec.metricsSnapshot();
  EXPECT_EQ(snap.counterValue("events.test"), 7u);
}

}  // namespace
}  // namespace comb::sim
