// Steady-state allocation regression for the sharded window loop: after
// a warm-up run has grown the event pools, both parities' mailbox slots
// and the fold-in scratch to capacity, a multi-window cross-shard run
// (including its fold-in at stop) must not touch the heap at all — no per-window closures, no per-message boxes, no barrier
// bookkeeping. Guarded the same way as the TraceLog test: operator new
// is replaced binary-wide and counted.
#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/units.hpp"
#include "sim/shard_context.hpp"

namespace {
std::atomic<std::size_t> g_allocCount{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace comb::sim {
namespace {

constexpr Time kLookahead = 1.0;

/// Endless cross-shard ping-pong: one event per window, every hop posted
/// through the mailbox rings (alternating parity, so both sets warm up).
/// Small enough to live inline in an event closure — any heap traffic
/// the counter sees comes from the executor.
struct PingPong {
  Executor& exec;
  std::uint64_t hops = 0;
  void hop(int s) {
    ++hops;
    ShardContext& ctx = exec.shard(s);
    ctx.postRemote(exec.shard(1 - s), ctx.now() + kLookahead,
                   [this, s] { hop(1 - s); });
  }
};

TEST(ExecutorAlloc, SteadyStateWindowLoopIsAllocationFree) {
  ExecutorOptions opts;
  opts.shards = 2;
  opts.lookahead = kLookahead;
  opts.workers = 1;  // deterministic on any host; the loop is identical
  Executor exec(opts);
  PingPong pp{exec};
  exec.shard(0).schedule(0.0, [&pp] { pp.hop(0); });

  // Warm-up: grows the event pool, ring storage and scratch to capacity.
  exec.run(64.0);
  const std::uint64_t warmWindows = exec.windowsExecuted();
  ASSERT_GT(warmWindows, 16u);
  ASSERT_GT(pp.hops, 16u);

  const std::size_t before = g_allocCount.load(std::memory_order_relaxed);
  exec.run(512.0);
  const std::size_t after = g_allocCount.load(std::memory_order_relaxed);
  EXPECT_GT(exec.windowsExecuted(), warmWindows + 128);
  EXPECT_EQ(after, before) << "sharded window loop allocated in steady state";
}

}  // namespace
}  // namespace comb::sim
