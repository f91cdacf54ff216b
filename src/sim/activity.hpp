// ActivitySignal: a monotonically-versioned condition for "something may
// have changed, re-check your predicate" patterns.
//
// Unlike a bare Trigger, it is immune to lost wake-ups: a waiter passes
// the version it last observed, and the wait completes immediately if the
// version has already advanced. This is how MiniMPI blocking waits sleep
// between protocol events without re-polling the simulator.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/shard_context.hpp"

namespace comb::sim {

class ActivitySignal {
 public:
  explicit ActivitySignal(ShardContext& sim) : sim_(&sim) {}
  ActivitySignal(const ActivitySignal&) = delete;
  ActivitySignal& operator=(const ActivitySignal&) = delete;

  std::uint64_t version() const { return version_; }

  /// Advance the version and wake every waiter (through the event queue).
  void signal() {
    ++version_;
    auto waiters = std::move(waiters_);
    waiters_.clear();
    for (auto h : waiters) sim_->schedule(0.0, [h] { h.resume(); });
  }

  struct Awaiter {
    ActivitySignal& sig;
    std::uint64_t seen;
    bool await_ready() const noexcept { return sig.version_ != seen; }
    void await_suspend(std::coroutine_handle<> h) {
      sig.waiters_.push_back(h);
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable: completes once version() differs from `seen`.
  Awaiter changedSince(std::uint64_t seen) { return Awaiter{*this, seen}; }

  std::size_t waiterCount() const { return waiters_.size(); }

 private:
  ShardContext* sim_;
  std::uint64_t version_ = 0;
  std::vector<std::coroutine_handle<>> waiters_;
};

}  // namespace comb::sim
