// EpochBarrier: the window barrier of the sharded executor.
//
// A classic centralized sense-reversing barrier, built from two atomics:
// an arrival counter and a monotonically increasing generation (epoch).
// The last thread to arrive runs a completion function — the executor
// uses it to plan the next conservative window (LBTS bounds, termination)
// — and then bumps the generation, releasing everyone. Waiters spin a
// bounded number of iterations on the generation and then fall back to
// std::atomic::wait (a futex on Linux), so a barrier crossing costs tens
// of nanoseconds when shards arrive together and never burns a core when
// they don't.
//
// Memory ordering: every arrival is an acq_rel RMW on `arrived_`, so the
// last arriver observes all earlier arrivers' writes; the generation bump
// is a release store that waiters acquire, so the completion function's
// writes (and, transitively, every participant's pre-barrier writes) are
// visible to every participant after the crossing. This is exactly the
// happens-before edge the executor's phase discipline relies on — shard
// state, mailbox rings and window bounds cross threads only over this
// barrier — and it is visible to ThreadSanitizer.
//
// With a single participant the barrier degenerates to an inline call of
// the completion function: the one-worker executor pays no atomics beyond
// two uncontended RMWs and never sleeps.
#pragma once

#include <atomic>
#include <cstdint>

#include "common/error.hpp"

namespace comb::sim {

class EpochBarrier {
 public:
  explicit EpochBarrier(int participants) : participants_(participants) {
    COMB_REQUIRE(participants >= 1, "barrier needs at least one participant");
  }
  EpochBarrier(const EpochBarrier&) = delete;
  EpochBarrier& operator=(const EpochBarrier&) = delete;

  /// Arrive at the barrier; the last arriver runs `completion()` before
  /// releasing the others. Returns after every participant of this epoch
  /// has arrived and the completion has run.
  template <typename F>
  void arriveAndWait(F&& completion) {
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        participants_) {
      // Reset before the release: no thread can re-arrive until it sees
      // the generation bump, which happens strictly after this store.
      arrived_.store(0, std::memory_order_relaxed);
      completion();
      generation_.fetch_add(1, std::memory_order_release);
      generation_.notify_all();
      return;
    }
    // Bounded spin: windows are typically microseconds of work, so the
    // other shards are almost always a few hundred cycles away. Fall
    // back to the futex only when they are genuinely late (imbalanced
    // partitions, oversubscribed host).
    for (int spin = 0; spin < kSpinLimit; ++spin) {
      if (generation_.load(std::memory_order_acquire) != gen) return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    while (generation_.load(std::memory_order_acquire) == gen)
      generation_.wait(gen, std::memory_order_acquire);
  }

  int participants() const { return participants_; }
  /// Number of completed crossings — observability for tests.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  static constexpr int kSpinLimit = 2048;

  const int participants_;
  // Separate cache lines: waiters spin on generation_ while arrivals
  // update arrived_.
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<std::uint64_t> generation_{0};
};

}  // namespace comb::sim
