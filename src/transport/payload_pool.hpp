// Per-NIC recycling pool for WirePayload.
//
// Fragment payloads are the dominant allocation of a running simulation —
// one per packet on every (re)transmission. The pool keeps released
// payloads on a free list so steady-state traffic constructs no new ones:
// releasing the last PayloadRef routes through PayloadBase::releaseSelf
// into the free list instead of the heap.
//
// Lifetime: packets can still be in flight (inside event closures owned
// by the simulator) when the NIC that sent them is destroyed, so pooled
// payloads keep their backing store alive via a shared State — the free
// list outlives the pool object until the last outstanding payload
// returns, at which point everything is reclaimed.
//
// Thread-safety: the free list is mutex-protected. A pool belongs to one
// NIC on one shard, but under the sharded PDES executor the *last*
// reference to a payload is often dropped on the receiving node's shard
// (delivery releases the in-flight ref while the sender's retained copy
// is long gone), so releaseSelf — and therefore the free list — can run
// on a different thread than acquire. The lock is uncontended in serial
// runs and on the acquire path of parallel ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "transport/wire.hpp"

namespace comb::transport {

class WirePayloadPool {
 public:
  WirePayloadPool() : state_(std::make_shared<State>()) {}
  WirePayloadPool(const WirePayloadPool&) = delete;
  WirePayloadPool& operator=(const WirePayloadPool&) = delete;

  /// A default-initialized payload (recycled when possible).
  net::PayloadRef<WirePayload> acquire() {
    Pooled* p = state_->pop();
    if (p != nullptr) {
      p->home = state_;
      static_cast<WireFields&>(*p) = WireFields{};
    } else {
      p = new Pooled(state_);
    }
    return net::PayloadRef<WirePayload>(p);
  }

  /// A payload cloned from `proto`'s wire fields (the per-fragment copy
  /// in the GM transmit path).
  net::PayloadRef<WirePayload> acquire(const WirePayload& proto) {
    auto ref = acquire();
    ref->fields() = proto.fields();
    return ref;
  }

  // --- introspection (tests, benchmarks) ---------------------------------
  std::uint64_t allocated() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->allocated;
  }
  std::uint64_t reused() const {
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->reused;
  }

 private:
  struct Pooled;

  struct State {
    mutable std::mutex mu;
    std::vector<Pooled*> free;
    std::uint64_t allocated = 0;
    std::uint64_t reused = 0;

    /// Take a parked payload, or nullptr (counting the miss as a fresh
    /// allocation — the caller then news one).
    Pooled* pop() {
      std::lock_guard<std::mutex> lock(mu);
      if (free.empty()) {
        ++allocated;
        return nullptr;
      }
      Pooled* p = free.back();
      free.pop_back();
      ++reused;
      return p;
    }

    ~State() {
      for (Pooled* p : free) delete p;
    }
  };

  struct Pooled : WirePayload {
    explicit Pooled(std::shared_ptr<State> s) : home(std::move(s)) {}
    /// Keeps the free list alive while this payload is outstanding;
    /// empty while parked on the free list.
    std::shared_ptr<State> home;

   protected:
    void releaseSelf() const override {
      auto* self = const_cast<Pooled*>(this);
      // Drop captured buffers now — a parked payload must not pin data.
      self->data = nullptr;
      // Keep the state alive across the push; if this payload held the
      // last reference (pool already destroyed, last packet drained),
      // ~State runs as `keep` goes out of scope and deletes everything
      // on the free list, including this object.
      std::shared_ptr<State> keep = std::move(self->home);
      {
        std::lock_guard<std::mutex> lock(keep->mu);
        keep->free.push_back(self);
      }
    }
  };

  std::shared_ptr<State> state_;
};

}  // namespace comb::transport
