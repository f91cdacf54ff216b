// Allocation regression for Trigger: the common case — one process waits,
// another event fires, the waiter resumes and re-arms — must not touch the
// heap once the event pool is warm. Cpu::compute waits on a fresh trigger
// once per call, so a per-wait allocation would be paid on every compute.
// operator new is replaced binary-wide and counted, as in
// test_executor_alloc.
#include "sim/trigger.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "sim/shard_context.hpp"
#include "sim/task.hpp"

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

/// Cpu::compute's shape: each step waits once on a fresh trigger that a
/// later event fires, so waiter storage cannot carry over between waits.
Task<void> computeLoop(ShardContext& sim, std::uint64_t steps,
                       std::uint64_t& woken) {
  for (std::uint64_t i = 0; i < steps; ++i) {
    Trigger done(sim);
    sim.schedule(1.0, [&done] { done.fire(); });
    co_await done.wait();
    ++woken;
  }
}

TEST(TriggerAlloc, SingleWaiterWaitFireResumeIsAllocationFree) {
  ShardContext sim;
  std::uint64_t woken = 0;
  sim.spawn(computeLoop(sim, 2000, woken), "waiter");

  // Warm-up: spawns the waiter and grows the event pool.
  sim.run(64.0);
  const std::uint64_t warm = woken;
  ASSERT_GT(warm, 16u);

  const std::size_t before = g_allocCount.load(std::memory_order_relaxed);
  sim.run(1024.0);
  const std::size_t after = g_allocCount.load(std::memory_order_relaxed);
  EXPECT_GT(woken, warm + 900);
  EXPECT_EQ(after, before) << "single-waiter wait/fire/resume allocated";
  sim.run();  // let the loop finish, so its frame is freed
  EXPECT_EQ(woken, 2000u);
}

}  // namespace
}  // namespace comb::sim
