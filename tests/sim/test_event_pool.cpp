// Event-pool mechanics: slot recycling, stale-handle detection via the
// seq-as-generation check, FIFO order across recycled slots, and closure
// lifetime (teardown must destroy unfired closures — the spawn-leak
// regression).
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/shard_context.hpp"
#include "sim/task.hpp"

namespace comb::sim {
namespace {

TEST(EventPool, SlotsRecycleWithoutGrowingTheSlab) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.push(1.0, [] {});
  EXPECT_EQ(q.poolCapacity(), 100u);
  EXPECT_EQ(q.liveEvents(), 100u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(q.liveEvents(), 0u);
  // A second wave of the same size reuses the freed slots: the slab has
  // reached its high-water mark and must not grow again.
  for (int i = 0; i < 100; ++i) q.push(2.0, [] {});
  EXPECT_EQ(q.poolCapacity(), 100u);
  EXPECT_EQ(q.liveEvents(), 100u);
}

TEST(EventPool, StaleHandleCannotTouchARecycledSlot) {
  EventQueue q;
  auto h1 = q.push(1.0, [] {});
  h1.cancel();
  // h2 reuses h1's slot (single free slot available) but gets a new seq.
  int ran = 0;
  auto h2 = q.push(1.0, [&] { ++ran; });
  EXPECT_FALSE(h1.pending());
  EXPECT_TRUE(h2.pending());
  h1.cancel();  // stale: must not cancel h2's event
  EXPECT_TRUE(h2.pending());
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(ran, 1);
}

TEST(EventPool, HandleInvalidatedByFiringEvenAfterSlotReuse) {
  EventQueue q;
  auto h1 = q.push(1.0, [] {});
  q.pop().second();  // h1 fires; its slot returns to the free list
  EXPECT_FALSE(h1.pending());
  int ran = 0;
  auto h2 = q.push(2.0, [&] { ++ran; });
  h1.cancel();  // refers to the fired event, not the slot's new occupant
  h1.cancel();  // idempotent
  EXPECT_TRUE(h2.pending());
  q.pop().second();
  EXPECT_EQ(ran, 1);
}

TEST(EventPool, CancelAfterFireAndDoubleCancelAreIdempotent) {
  EventQueue q;
  int ran = 0;
  auto h = q.push(1.0, [&] { ++ran; });
  q.pop().second();
  h.cancel();
  h.cancel();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(q.empty());

  auto h2 = q.push(1.0, [&] { ++ran; });
  h2.cancel();
  h2.cancel();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(ran, 1);
}

TEST(EventPool, FifoAtEqualTimestampsSurvivesRecycling) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventHandle> hs;
  for (int i = 0; i < 5; ++i)
    hs.push_back(q.push(1.0, [&order, i] { order.push_back(i); }));
  // Cancel two events mid-pack; their slots are recycled by later pushes
  // at the same timestamp, which must still fire in push order.
  hs[1].cancel();
  hs[3].cancel();
  q.push(1.0, [&order] { order.push_back(5); });
  q.push(1.0, [&order] { order.push_back(6); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 5, 6}));
}

TEST(EventPool, CancelDestroysTheClosureEagerly) {
  EventQueue q;
  auto sentinel = std::make_shared<int>(1);
  auto h = q.push(1.0, [keep = sentinel] { (void)keep; });
  EXPECT_EQ(sentinel.use_count(), 2);
  h.cancel();
  // Eager release: captured resources free at cancel time, not when the
  // stale heap entry eventually surfaces.
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventPool, TeardownDestroysUnfiredClosures) {
  auto sentinel = std::make_shared<int>(1);
  {
    EventQueue q;
    q.push(1.0, [keep = sentinel] { (void)keep; });
    q.push(2.0, [keep = sentinel] { (void)keep; });
    EXPECT_EQ(sentinel.use_count(), 3);
  }
  EXPECT_EQ(sentinel.use_count(), 1);
}

Task<void> holdSentinel(std::shared_ptr<int> keep) {
  (void)keep;
  co_return;
}

TEST(EventPool, DroppingASimulatorReleasesUnstartedSpawns) {
  // Regression: spawn defers the first step through the event queue; a
  // simulator destroyed before run() must destroy that deferred closure
  // and with it the coroutine frame (and everything the frame holds).
  auto sentinel = std::make_shared<int>(7);
  {
    ShardContext sim;
    sim.spawn(holdSentinel(sentinel), "never-run");
    EXPECT_GT(sentinel.use_count(), 1);
  }
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(EventPool, SpawnedProcessStillRunsNormally) {
  auto sentinel = std::make_shared<int>(7);
  ShardContext sim;
  sim.spawn(holdSentinel(sentinel), "runs");
  sim.run();
  EXPECT_EQ(sentinel.use_count(), 1);
  EXPECT_EQ(sim.liveProcesses(), 0u);
}

}  // namespace
}  // namespace comb::sim
