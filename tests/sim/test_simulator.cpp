#include "sim/shard_context.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/units.hpp"

namespace comb::sim {
namespace {

using namespace comb::units;

TEST(Simulator, StartsAtZero) {
  ShardContext sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.eventsExecuted(), 0u);
}

TEST(Simulator, EventsRunInTimeOrder) {
  ShardContext sim;
  std::vector<int> order;
  sim.schedule(3_ms, [&] { order.push_back(3); });
  sim.schedule(1_ms, [&] { order.push_back(1); });
  sim.schedule(2_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3e-3);
}

TEST(Simulator, SameTimestampIsFifo) {
  ShardContext sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) sim.schedule(1_ms, [&, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, EventsCanScheduleEvents) {
  ShardContext sim;
  int fired = 0;
  sim.schedule(1_ms, [&] {
    ++fired;
    sim.schedule(1_ms, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2e-3);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  ShardContext sim;
  int fired = 0;
  sim.schedule(1_ms, [&] { ++fired; });
  sim.schedule(5_ms, [&] { ++fired; });
  sim.run(2_ms);
  EXPECT_EQ(fired, 1);
  // Clock parked at the boundary, not at the pending event.
  EXPECT_DOUBLE_EQ(sim.now(), 2e-3);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventAtExactlyUntilRuns) {
  ShardContext sim;
  int fired = 0;
  sim.schedule(2_ms, [&] { ++fired; });
  sim.run(2_ms);
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, CancelledEventDoesNotRun) {
  ShardContext sim;
  int fired = 0;
  auto h = sim.schedule(1_ms, [&] { ++fired; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  sim.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, CancelIsIdempotentAndSafeAfterRun) {
  ShardContext sim;
  auto h = sim.schedule(1_ms, [] {});
  sim.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
}

TEST(Simulator, DefaultEventHandleInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Simulator, StepExecutesOneEvent) {
  ShardContext sim;
  int fired = 0;
  sim.schedule(1_ms, [&] { ++fired; });
  sim.schedule(2_ms, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SpawnedProcessRuns) {
  ShardContext sim;
  int stage = 0;
  auto proc = [&]() -> Task<void> {
    stage = 1;
    co_await sim.delay(1_ms);
    stage = 2;
    co_await sim.delay(2_ms);
    stage = 3;
  };
  sim.spawn(proc(), "p");
  EXPECT_EQ(stage, 0);  // lazy until run
  sim.run();
  EXPECT_EQ(stage, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 3e-3);
  EXPECT_EQ(sim.liveProcesses(), 0u);
}

TEST(Simulator, TwoProcessesInterleaveDeterministically) {
  ShardContext sim;
  std::vector<std::pair<char, Time>> log;
  auto proc = [&](char id, Time step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await sim.delay(step);
      log.emplace_back(id, sim.now());
    }
  };
  sim.spawn(proc('a', 1_ms), "a");
  sim.spawn(proc('b', 1.5_ms), "b");
  sim.run();
  const std::vector<std::pair<char, Time>> expect{
      {'a', 1e-3}, {'b', 1.5e-3}, {'a', 2e-3},
      {'b', 3e-3}, {'a', 3e-3},   {'b', 4.5e-3}};
  ASSERT_EQ(log.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(log[i].first, expect[i].first) << "i=" << i;
    EXPECT_NEAR(log[i].second, expect[i].second, 1e-15) << "i=" << i;
  }
}

TEST(Simulator, ProcessExceptionPropagatesFromRun) {
  ShardContext sim;
  auto proc = [&]() -> Task<void> {
    co_await sim.delay(1_ms);
    throw std::runtime_error("boom");
  };
  sim.spawn(proc(), "crasher");
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Simulator, TraceHookObservesEveryEvent) {
  ShardContext sim;
  std::vector<Time> times;
  sim.setTrace([&](Time t, std::uint64_t) { times.push_back(t); });
  sim.schedule(1_ms, [] {});
  sim.schedule(2_ms, [] {});
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1e-3);
  EXPECT_DOUBLE_EQ(times[1], 2e-3);
  EXPECT_EQ(sim.eventsExecuted(), 2u);
}

TEST(Simulator, DeterministicEventCounts) {
  auto runOnce = [] {
    ShardContext sim;
    auto proc = [&sim](Time step) -> Task<void> {
      for (int i = 0; i < 100; ++i) co_await sim.delay(step);
    };
    sim.spawn(proc(1_us), "a");
    sim.spawn(proc(1.7_us), "b");
    sim.run();
    return std::pair{sim.eventsExecuted(), sim.now()};
  };
  const auto a = runOnce();
  const auto b = runOnce();
  EXPECT_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

TEST(Simulator, ZeroDelayYieldsBetweenProcesses) {
  ShardContext sim;
  std::vector<int> order;
  auto proc = [&](int id) -> Task<void> {
    for (int i = 0; i < 2; ++i) {
      order.push_back(id);
      co_await sim.yield();
    }
  };
  sim.spawn(proc(1), "p1");
  sim.spawn(proc(2), "p2");
  sim.run();
  // Round-robin because yields re-queue FIFO at the same timestamp.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

}  // namespace
}  // namespace comb::sim
