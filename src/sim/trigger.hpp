// Awaitable synchronization primitives for simulated processes.
//
// Trigger      — a one-shot latch: waiters suspend until fire(); waiting on
//                an already-fired trigger completes immediately. reset()
//                re-arms it.
// CountLatch   — completes waiters once `n` arrivals were counted.
//
// Resumptions are routed through the event queue at the current virtual
// time (never inline) so that wake-ups interleave deterministically with
// other same-timestamp events.
#pragma once

#include <coroutine>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/shard_context.hpp"

namespace comb::sim {

class Trigger {
 public:
  explicit Trigger(ShardContext& sim) : sim_(&sim) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  bool fired() const { return fired_; }

  /// Latch and wake all current waiters (at the current virtual time) in
  /// the order they started waiting. Idempotent while latched.
  void fire() {
    if (fired_) return;
    fired_ = true;
    const auto first = std::exchange(first_, {});
    if (first) sim_->schedule(0.0, [first] { first.resume(); });
    // schedule() only queues the resumptions, so nobody can wait on this
    // trigger while the loop runs; the spill keeps its capacity.
    for (auto h : more_) sim_->schedule(0.0, [h] { h.resume(); });
    more_.clear();
  }

  /// Re-arm. Only valid when no one is waiting.
  void reset() {
    COMB_ASSERT(!first_, "Trigger::reset with pending waiters");
    fired_ = false;
  }

  struct Awaiter {
    Trigger& t;
    bool await_ready() const noexcept { return t.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (t.first_)
        t.more_.push_back(h);
      else
        t.first_ = h;
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable: suspend until fired.
  Awaiter wait() { return Awaiter{*this}; }

  std::size_t waiterCount() const { return (first_ ? 1 : 0) + more_.size(); }

 private:
  ShardContext* sim_;
  bool fired_ = false;
  // The oldest waiter sits inline, so the common single-waiter wait
  // allocates nothing; later ones spill into `more_` in arrival order.
  std::coroutine_handle<> first_;
  std::vector<std::coroutine_handle<>> more_;
};

/// Completes waiters after arrive() was called `expected` times.
class CountLatch {
 public:
  CountLatch(ShardContext& sim, std::size_t expected)
      : trigger_(sim), remaining_(expected) {
    if (remaining_ == 0) trigger_.fire();
  }

  void arrive() {
    COMB_ASSERT(remaining_ > 0, "CountLatch::arrive past zero");
    if (--remaining_ == 0) trigger_.fire();
  }

  std::size_t remaining() const { return remaining_; }
  auto wait() { return trigger_.wait(); }

 private:
  Trigger trigger_;
  std::size_t remaining_;
};

}  // namespace comb::sim
