// EpochBarrier + MailboxRing: the synchronization and transport
// primitives of the sharded executor's window loop. The barrier tests
// run real thread teams through many generations (completion runs
// exactly once per window, on exactly one thread, and its writes are
// visible to every participant afterwards); the mailbox tests pin down
// append order, spill behavior beyond the fixed slots, reuse, and the
// earliest-`when` tracking the window planner reads.
#include "sim/window_barrier.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "sim/mailbox.hpp"

namespace comb::sim {
namespace {

TEST(EpochBarrier, SingleParticipantRunsCompletionInline) {
  EpochBarrier barrier(1);
  int completions = 0;
  for (int i = 0; i < 3; ++i) barrier.arriveAndWait([&] { ++completions; });
  EXPECT_EQ(completions, 3);
  EXPECT_EQ(barrier.generation(), 3u);
}

TEST(EpochBarrier, CompletionRunsOncePerGenerationAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  EpochBarrier barrier(kThreads);
  // Written only inside the completion (one thread per generation, and
  // generations are totally ordered by the barrier itself).
  int completions = 0;
  std::atomic<int> arrivals{0};
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        arrivals.fetch_add(1, std::memory_order_relaxed);
        barrier.arriveAndWait([&] { ++completions; });
      }
    });
  }
  for (auto& th : team) th.join();
  EXPECT_EQ(completions, kRounds);
  EXPECT_EQ(arrivals.load(), kThreads * kRounds);
  EXPECT_EQ(barrier.generation(), static_cast<std::uint64_t>(kRounds));
}

TEST(EpochBarrier, CompletionWritesAreVisibleToAllAfterRelease) {
  // The executor's phase discipline in miniature: each round, every
  // thread bumps its plain (non-atomic) slot, the completion sums the
  // slots, and after release every thread must read the same sum. Any
  // missing happens-before edge is a torn read here — and a TSan report
  // under scripts/verify_tier1.sh.
  constexpr int kThreads = 4;
  constexpr int kRounds = 100;
  EpochBarrier barrier(kThreads);
  int slots[kThreads] = {};
  int sum = 0;  // written by the completion only
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> team;
  for (int t = 0; t < kThreads; ++t) {
    team.emplace_back([&, t] {
      for (int r = 1; r <= kRounds; ++r) {
        slots[t] = r;
        barrier.arriveAndWait([&] {
          sum = 0;
          for (int s : slots) sum += s;
        });
        if (sum != kThreads * r) mismatch.store(true);
        barrier.arriveAndWait([] {});  // phase B: everyone saw this round
      }
    });
  }
  for (auto& th : team) th.join();
  EXPECT_FALSE(mismatch.load());
}

TEST(MailboxRing, DrainsInAppendOrderAndSpillsPastSlots) {
  MailboxRing ring;
  EXPECT_TRUE(ring.empty());
  const std::size_t total = MailboxRing::kSlots + 17;  // force spill
  for (std::size_t i = 0; i < total; ++i)
    ring.push(static_cast<Time>(i), /*seq=*/i, /*src=*/1, [] {});
  EXPECT_EQ(ring.size(), total);

  std::vector<RemoteEvent> out;
  ring.drainInto(out);
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.size(), 0u);
  ASSERT_EQ(out.size(), total);
  for (std::size_t i = 0; i < total; ++i) {
    EXPECT_EQ(out[i].seq, i);
    EXPECT_EQ(out[i].when, static_cast<Time>(i));
    EXPECT_EQ(out[i].src, 1u);
  }
}

TEST(MailboxRing, ReusableAcrossWindowsAndCarriesPayload) {
  MailboxRing ring;
  int fired = 0;
  std::vector<RemoteEvent> out;
  for (int window = 0; window < 3; ++window) {
    ring.push(1.0, 0, 0, [&fired] { ++fired; });
    ring.push(2.0, 1, 0, [&fired] { fired += 10; });
    out.clear();
    ring.drainInto(out);
    ASSERT_EQ(out.size(), 2u);
    for (auto& ev : out) ev.fn();
    EXPECT_TRUE(ring.empty());
  }
  EXPECT_EQ(fired, 3 * 11);
}

TEST(MailboxRing, TracksEarliestWhenAcrossSlotsAndSpill) {
  constexpr Time kInf = std::numeric_limits<Time>::infinity();
  MailboxRing ring;
  EXPECT_EQ(ring.minWhen(), kInf);
  for (std::size_t i = 0; i < MailboxRing::kSlots; ++i)
    ring.push(10.0 + static_cast<Time>(i), i, 0, [] {});
  EXPECT_EQ(ring.minWhen(), 10.0);
  ring.push(4.0, MailboxRing::kSlots, 0, [] {});  // spills
  EXPECT_EQ(ring.minWhen(), 4.0);
  ring.push(7.0, MailboxRing::kSlots + 1, 0, [] {});
  EXPECT_EQ(ring.minWhen(), 4.0);

  std::vector<RemoteEvent> out;
  ring.drainInto(out);
  EXPECT_EQ(ring.minWhen(), kInf);
  ring.push(12.0, 0, 0, [] {});  // reuse starts from a clean minimum
  EXPECT_EQ(ring.minWhen(), 12.0);
  ring.drainInto(out);
  EXPECT_EQ(ring.minWhen(), kInf);
}

}  // namespace
}  // namespace comb::sim
