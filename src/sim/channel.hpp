// Channel<T>: an unbounded FIFO mailbox between simulated processes.
//
// send() never blocks; recv() is awaitable and completes (through the
// event queue, for determinism) as soon as a value is available. Multiple
// concurrent receivers are served FIFO.
#pragma once

#include <coroutine>
#include <deque>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "sim/shard_context.hpp"

namespace comb::sim {

template <typename T>
class Channel {
 public:
  explicit Channel(ShardContext& sim) : sim_(&sim) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T value) {
    values_.push_back(std::move(value));
    pump();
  }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Non-blocking receive.
  std::optional<T> tryRecv() {
    // Values already promised to suspended receivers are not stealable.
    if (values_.size() <= inFlight_) return std::nullopt;
    T v = std::move(values_.front());
    values_.pop_front();
    return v;
  }

  struct Awaiter {
    Channel& ch;

    bool await_ready() {
      // Fast path: a value is free (not reserved by an earlier waiter).
      return ch.waiters_.empty() && ch.values_.size() > ch.inFlight_;
    }
    void await_suspend(std::coroutine_handle<> h) {
      ch.waiters_.push_back(h);
      ch.pump();
    }
    T await_resume() {
      COMB_ASSERT(!ch.values_.empty(), "Channel resumed without a value");
      T v = std::move(ch.values_.front());
      ch.values_.pop_front();
      if (ch.inFlight_ > 0) --ch.inFlight_;  // consumed a reserved value
      return v;
    }
  };

  /// Awaitable receive.
  Awaiter recv() { return Awaiter{*this}; }

 private:
  // Match queued values to suspended receivers; each match reserves one
  // value (inFlight_) and schedules the receiver's resumption.
  void pump() {
    while (!waiters_.empty() && values_.size() > inFlight_) {
      auto h = waiters_.front();
      waiters_.pop_front();
      ++inFlight_;
      sim_->schedule(0.0, [h] { h.resume(); });
    }
  }

  ShardContext* sim_;
  std::deque<T> values_;
  std::deque<std::coroutine_handle<>> waiters_;
  std::size_t inFlight_ = 0;
};

}  // namespace comb::sim
