#include "sim/task.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

#include "common/units.hpp"
#include "sim/shard_context.hpp"

namespace comb::sim {
namespace {

using namespace comb::units;

TEST(Task, ValueTaskReturnsThroughAwait) {
  ShardContext sim;
  int result = 0;
  auto inner = []() -> Task<int> { co_return 41; };
  auto outer = [&]() -> Task<void> { result = 1 + co_await inner(); };
  sim.spawn(outer(), "outer");
  sim.run();
  EXPECT_EQ(result, 42);
}

TEST(Task, ChainedValueTasks) {
  ShardContext sim;
  std::string result;
  auto leaf = [](std::string s) -> Task<std::string> { co_return s + "!"; };
  auto mid = [&](std::string s) -> Task<std::string> {
    co_return co_await leaf(s + "b");
  };
  auto root = [&]() -> Task<void> { result = co_await mid("a"); };
  sim.spawn(root(), "root");
  sim.run();
  EXPECT_EQ(result, "ab!");
}

TEST(Task, LazyUntilAwaited) {
  ShardContext sim;
  bool started = false;
  auto inner = [&]() -> Task<void> {
    started = true;
    co_return;
  };
  Task<void> t = inner();
  EXPECT_FALSE(started);
  EXPECT_TRUE(t.valid());
  auto outer = [&](Task<void> held) -> Task<void> {
    EXPECT_FALSE(started);
    co_await std::move(held);
    EXPECT_TRUE(started);
  };
  sim.spawn(outer(std::move(t)), "outer");
  sim.run();
  EXPECT_TRUE(started);
}

TEST(Task, SubtaskDelaysPropagateTime) {
  ShardContext sim;
  auto inner = [&]() -> Task<int> {
    co_await sim.delay(5_ms);
    co_return 7;
  };
  Time whenDone = -1;
  auto outer = [&]() -> Task<void> {
    const int v = co_await inner();
    EXPECT_EQ(v, 7);
    whenDone = sim.now();
  };
  sim.spawn(outer(), "outer");
  sim.run();
  EXPECT_DOUBLE_EQ(whenDone, 5e-3);
}

TEST(Task, ExceptionPropagatesToAwaiter) {
  ShardContext sim;
  bool caught = false;
  auto inner = []() -> Task<int> {
    throw std::runtime_error("inner failed");
    co_return 0;  // unreachable
  };
  auto outer = [&]() -> Task<void> {
    try {
      (void)co_await inner();
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "inner failed";
    }
  };
  sim.spawn(outer(), "outer");
  sim.run();
  EXPECT_TRUE(caught);
}

TEST(Task, MoveTransfersOwnership) {
  auto inner = []() -> Task<int> { co_return 1; };
  Task<int> a = inner();
  EXPECT_TRUE(a.valid());
  Task<int> b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  Task<int> c;
  c = std::move(b);
  EXPECT_TRUE(c.valid());
}

TEST(Task, DestroyWithoutRunningDoesNotLeakOrCrash) {
  // Frame with a non-trivially-destructible local: destruction of a
  // never-started coroutine must run no body code but free the frame.
  bool bodyRan = false;
  {
    auto inner = [&]() -> Task<void> {
      auto guard = std::make_shared<int>(5);
      bodyRan = true;
      co_return;
    };
    Task<void> t = inner();
    (void)t;
  }
  EXPECT_FALSE(bodyRan);
}

TEST(Task, DeepChainDoesNotOverflowStack) {
  ShardContext sim;
  // 50k-deep symmetric-transfer chain; would crash with naive recursion.
  std::function<Task<int>(int)> rec = [&](int n) -> Task<int> {
    if (n == 0) co_return 0;
    co_return 1 + co_await rec(n - 1);
  };
  int result = -1;
  auto outer = [&]() -> Task<void> { result = co_await rec(50000); };
  sim.spawn(outer(), "deep");
  sim.run();
  EXPECT_EQ(result, 50000);
}

TEST(Task, VoidTaskAwaitableMultipleSequential) {
  ShardContext sim;
  int count = 0;
  auto once = [&]() -> Task<void> {
    ++count;
    co_return;
  };
  auto outer = [&]() -> Task<void> {
    co_await once();
    co_await once();
    co_await once();
  };
  sim.spawn(outer(), "seq");
  sim.run();
  EXPECT_EQ(count, 3);
}

TEST(Task, MoveOnlyResultType) {
  ShardContext sim;
  auto inner = []() -> Task<std::unique_ptr<int>> {
    co_return std::make_unique<int>(9);
  };
  int seen = 0;
  auto outer = [&]() -> Task<void> {
    auto p = co_await inner();
    seen = *p;
  };
  sim.spawn(outer(), "mo");
  sim.run();
  EXPECT_EQ(seen, 9);
}

}  // namespace
}  // namespace comb::sim
