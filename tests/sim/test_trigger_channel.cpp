#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/channel.hpp"
#include "sim/shard_context.hpp"
#include "sim/trigger.hpp"

namespace comb::sim {
namespace {

using namespace comb::units;

TEST(Trigger, WaitersResumeOnFire) {
  ShardContext sim;
  Trigger t(sim);
  std::vector<int> woke;
  auto waiter = [&](int id) -> Task<void> {
    co_await t.wait();
    woke.push_back(id);
  };
  sim.spawn(waiter(1), "w1");
  sim.spawn(waiter(2), "w2");
  sim.spawn([](ShardContext& s, Trigger& tr) -> Task<void> {
    co_await s.delay(2_ms);
    tr.fire();
  }(sim, t), "firer");
  sim.run();
  EXPECT_EQ(woke, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2e-3);
}

// The first waiter is held inline and later ones spill to a vector; the
// wake order must still be arrival order, also after a re-arm.
TEST(Trigger, WaitersWakeInArrivalOrderAcrossReArms) {
  ShardContext sim;
  Trigger t(sim);
  std::vector<int> woke;
  auto waiter = [&](int id, Time start) -> Task<void> {
    co_await sim.delay(start);
    co_await t.wait();
    woke.push_back(id);
  };
  for (const int id : {3, 1, 4, 2}) sim.spawn(waiter(id, id * 1e-6), "w");
  sim.schedule(1_ms, [&] {
    EXPECT_EQ(t.waiterCount(), 4u);
    t.fire();
    EXPECT_EQ(t.waiterCount(), 0u);
  });
  sim.schedule(2_ms, [&] {
    t.reset();
    for (const int id : {9, 7, 8}) sim.spawn(waiter(id, (10 - id) * 1e-6), "w");
  });
  sim.schedule(3_ms, [&] { t.fire(); });
  sim.run();
  EXPECT_EQ(woke, (std::vector<int>{1, 2, 3, 4, 9, 8, 7}));
}

TEST(Trigger, WaitAfterFireCompletesImmediately) {
  ShardContext sim;
  Trigger t(sim);
  t.fire();
  Time when = -1;
  auto waiter = [&]() -> Task<void> {
    co_await sim.delay(1_ms);
    co_await t.wait();  // already fired: no extra delay
    when = sim.now();
  };
  sim.spawn(waiter(), "w");
  sim.run();
  EXPECT_DOUBLE_EQ(when, 1e-3);
}

TEST(Trigger, FireIsIdempotent) {
  ShardContext sim;
  Trigger t(sim);
  t.fire();
  t.fire();
  EXPECT_TRUE(t.fired());
}

TEST(Trigger, ResetReArms) {
  ShardContext sim;
  Trigger t(sim);
  t.fire();
  t.reset();
  EXPECT_FALSE(t.fired());
  int wokenAt = -1;
  auto waiter = [&]() -> Task<void> {
    co_await t.wait();
    wokenAt = 1;
  };
  sim.spawn(waiter(), "w");
  sim.schedule(1_ms, [&] { t.fire(); });
  sim.run();
  EXPECT_EQ(wokenAt, 1);
}

TEST(CountLatch, CompletesAtZero) {
  ShardContext sim;
  CountLatch latch(sim, 3);
  bool done = false;
  auto waiter = [&]() -> Task<void> {
    co_await latch.wait();
    done = true;
  };
  sim.spawn(waiter(), "w");
  sim.schedule(1_ms, [&] { latch.arrive(); });
  sim.schedule(2_ms, [&] { latch.arrive(); });
  sim.schedule(3_ms, [&] { latch.arrive(); });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 3e-3);
}

TEST(CountLatch, ZeroExpectedFiresImmediately) {
  ShardContext sim;
  CountLatch latch(sim, 0);
  bool done = false;
  auto waiter = [&]() -> Task<void> {
    co_await latch.wait();
    done = true;
  };
  sim.spawn(waiter(), "w");
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Channel, SendThenRecv) {
  ShardContext sim;
  Channel<int> ch(sim);
  ch.send(5);
  int got = 0;
  auto rx = [&]() -> Task<void> { got = co_await ch.recv(); };
  sim.spawn(rx(), "rx");
  sim.run();
  EXPECT_EQ(got, 5);
}

TEST(Channel, RecvBlocksUntilSend) {
  ShardContext sim;
  Channel<std::string> ch(sim);
  std::string got;
  Time when = -1;
  auto rx = [&]() -> Task<void> {
    got = co_await ch.recv();
    when = sim.now();
  };
  sim.spawn(rx(), "rx");
  sim.schedule(4_ms, [&] { ch.send("late"); });
  sim.run();
  EXPECT_EQ(got, "late");
  EXPECT_DOUBLE_EQ(when, 4e-3);
}

TEST(Channel, FifoOrderAcrossValues) {
  ShardContext sim;
  Channel<int> ch(sim);
  std::vector<int> got;
  auto rx = [&]() -> Task<void> {
    for (int i = 0; i < 3; ++i) got.push_back(co_await ch.recv());
  };
  sim.spawn(rx(), "rx");
  ch.send(1);
  ch.send(2);
  ch.send(3);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(Channel, TwoReceiversServedFifo) {
  ShardContext sim;
  Channel<int> ch(sim);
  std::vector<std::pair<int, int>> got;  // (receiver, value)
  auto rx = [&](int id) -> Task<void> {
    const int v = co_await ch.recv();
    got.emplace_back(id, v);
  };
  sim.spawn(rx(1), "rx1");
  sim.spawn(rx(2), "rx2");
  sim.schedule(1_ms, [&] { ch.send(10); });
  sim.schedule(2_ms, [&] { ch.send(20); });
  sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (std::pair{1, 10}));
  EXPECT_EQ(got[1], (std::pair{2, 20}));
}

TEST(Channel, TryRecvDoesNotStealReservedValues) {
  ShardContext sim;
  Channel<int> ch(sim);
  int waiterGot = 0;
  auto rx = [&]() -> Task<void> { waiterGot = co_await ch.recv(); };
  sim.spawn(rx(), "rx");
  sim.schedule(1_ms, [&] {
    ch.send(7);
    // The queued value is reserved for the suspended receiver: tryRecv
    // must not intercept it.
    EXPECT_FALSE(ch.tryRecv().has_value());
  });
  sim.run();
  EXPECT_EQ(waiterGot, 7);
}

TEST(Channel, TryRecvTakesFreeValue) {
  ShardContext sim;
  Channel<int> ch(sim);
  ch.send(9);
  auto v = ch.tryRecv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
  EXPECT_FALSE(ch.tryRecv().has_value());
}

TEST(Channel, SizeTracksQueue) {
  ShardContext sim;
  Channel<int> ch(sim);
  EXPECT_TRUE(ch.empty());
  ch.send(1);
  ch.send(2);
  EXPECT_EQ(ch.size(), 2u);
}

}  // namespace
}  // namespace comb::sim
