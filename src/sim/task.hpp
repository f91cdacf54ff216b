// Coroutine task type for simulated processes.
//
// sim::Task<T> is a lazily-started coroutine: nothing runs until the task
// is co_awaited (or handed to ShardContext::spawn). Completion resumes the
// awaiter via symmetric transfer, so arbitrarily deep task chains use O(1)
// stack. Exceptions propagate to the awaiter; exceptions escaping a
// spawned (detached) task are captured by the ShardContext and rethrown from
// ShardContext::run() — a simulated process dying must fail the experiment,
// never be silently dropped.
#pragma once

#include <coroutine>
#include <exception>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace comb::sim {

template <typename T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      return p.continuation ? p.continuation : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// A lazily-started coroutine returning T. Move-only; owns the frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <typename U>
      requires std::convertible_to<U&&, T>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.done(); }

  // --- awaiter interface: `T x = co_await std::move(task);` -------------
  bool await_ready() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    h_.promise().continuation = cont;
    return h_;  // symmetric transfer: start the child now
  }
  T await_resume() {
    COMB_ASSERT(h_, "awaiting an empty Task");
    auto& p = h_.promise();
    if (p.exception) std::rethrow_exception(p.exception);
    COMB_ASSERT(p.value.has_value(), "Task finished without a value");
    return std::move(*p.value);
  }

  /// The raw handle (used by ShardContext::spawn).
  std::coroutine_handle<promise_type> handle() const { return h_; }
  std::coroutine_handle<promise_type> release() {
    return std::exchange(h_, {});
  }

  /// Start the coroutine and require it to finish without suspending —
  /// used by the synchronous (native thread) backend where every
  /// awaitable completes immediately. Returns the task's value.
  T runSync() {
    COMB_ASSERT(h_ && !h_.done(), "runSync on empty/finished task");
    h_.resume();
    COMB_ASSERT(h_.done(), "task suspended under a synchronous backend");
    return await_resume();
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_{};
};

template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Task() = default;
  Task(Task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_ && h_.done(); }

  bool await_ready() const noexcept { return !h_ || h_.done(); }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) {
    h_.promise().continuation = cont;
    return h_;
  }
  void await_resume() {
    COMB_ASSERT(h_, "awaiting an empty Task");
    if (h_.promise().exception) std::rethrow_exception(h_.promise().exception);
  }

  std::coroutine_handle<promise_type> handle() const { return h_; }
  std::coroutine_handle<promise_type> release() {
    return std::exchange(h_, {});
  }

  /// See Task<T>::runSync.
  void runSync() {
    COMB_ASSERT(h_ && !h_.done(), "runSync on empty/finished task");
    h_.resume();
    COMB_ASSERT(h_.done(), "task suspended under a synchronous backend");
    await_resume();
  }

 private:
  friend struct promise_type;
  explicit Task(std::coroutine_handle<promise_type> h) : h_(h) {}

  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_{};
};

}  // namespace comb::sim
