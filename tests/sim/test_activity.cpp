#include "sim/activity.hpp"

#include <gtest/gtest.h>

#include "common/units.hpp"
#include "sim/task.hpp"

namespace comb::sim {
namespace {

using namespace comb::units;

TEST(ActivitySignal, VersionAdvancesOnSignal) {
  ShardContext sim;
  ActivitySignal sig(sim);
  EXPECT_EQ(sig.version(), 0u);
  sig.signal();
  sig.signal();
  EXPECT_EQ(sig.version(), 2u);
}

TEST(ActivitySignal, WaiterWakesOnSignal) {
  ShardContext sim;
  ActivitySignal sig(sim);
  Time wokeAt = -1;
  auto waiter = [&]() -> Task<void> {
    co_await sig.changedSince(sig.version());
    wokeAt = sim.now();
  };
  sim.spawn(waiter(), "w");
  sim.schedule(3_ms, [&] { sig.signal(); });
  sim.run();
  EXPECT_DOUBLE_EQ(wokeAt, 3e-3);
}

TEST(ActivitySignal, NoLostWakeup) {
  // The signal fires BEFORE the waiter awaits: the stale version makes
  // the wait complete immediately instead of hanging.
  ShardContext sim;
  ActivitySignal sig(sim);
  bool done = false;
  auto waiter = [&]() -> Task<void> {
    const auto seen = sig.version();
    // Signal arrives while we are "busy" (before the await).
    co_await sim.delay(1_ms);
    co_await sig.changedSince(seen);
    done = true;
  };
  sim.spawn(waiter(), "w");
  sim.schedule(0.5_ms, [&] { sig.signal(); });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 1e-3);  // no extra waiting
}

TEST(ActivitySignal, MultipleWaitersAllWake) {
  ShardContext sim;
  ActivitySignal sig(sim);
  int woke = 0;
  auto waiter = [&]() -> Task<void> {
    co_await sig.changedSince(sig.version());
    ++woke;
  };
  for (int i = 0; i < 3; ++i) sim.spawn(waiter(), "w");
  sim.schedule(1_ms, [&] { sig.signal(); });
  sim.run();
  EXPECT_EQ(woke, 3);
  EXPECT_EQ(sig.waiterCount(), 0u);
}

TEST(ActivitySignal, RepeatedWaitCycles) {
  ShardContext sim;
  ActivitySignal sig(sim);
  int cycles = 0;
  auto waiter = [&]() -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      const auto seen = sig.version();
      co_await sig.changedSince(seen);
      ++cycles;
    }
  };
  sim.spawn(waiter(), "w");
  for (int i = 1; i <= 5; ++i)
    sim.schedule(static_cast<Time>(i) * 1_ms, [&] { sig.signal(); });
  sim.run();
  EXPECT_EQ(cycles, 5);
}

}  // namespace
}  // namespace comb::sim
