// MailboxRing: the cross-shard message channel of the sharded executor.
//
// The executor keeps two ring sets, indexed by window parity, with one
// ring per ordered shard pair (src, dst) in each set. In window k the
// source shard's worker appends to the ring of set k mod 2 (postRemote
// is a plain append — no lock, no atomic) while the destination shard's
// worker drains the ring of set (k-1) mod 2, which its source filled in
// window k-1. Producer and consumer therefore never touch the same ring
// in the same window; the executor's one EpochBarrier crossing per
// window hands each ring set from its writers to its reader, and its
// release/acquire edge is the only synchronization the rings need. The
// rings are plain memory, so ThreadSanitizer can verify the discipline
// end to end.
//
// Each ring tracks the earliest `when` it holds (minWhen): the window
// planner reads it at the crossing to lower each destination's next
// event time by mail that is still in flight, so the bounds equal those
// of a fold-in done before the crossing.
//
// Capacity is fixed (kSlots, sized for a typical window's traffic on one
// pair); bursts beyond it spill into a vector that retains its capacity
// across windows, so the steady state allocates nothing either way.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "sim/event_queue.hpp"

namespace comb::sim {

/// A timestamped cross-shard channel message. Ordering across sources is
/// by the packed (time, seq, src) key — time first, then the source's
/// deterministic message sequence, then the source shard id — which makes
/// the fold-in order (and therefore the destination shard's event order)
/// a pure function of the simulation state, never of thread scheduling.
struct RemoteEvent {
  Time when = 0;
  std::uint64_t seq = 0;
  std::uint32_t src = 0;
  EventFn fn;
};

/// Cache-line aligned: the rings of one set sit side by side in an
/// array, and rings with different sources are written by different
/// workers in the same window.
class alignas(64) MailboxRing {
 public:
  /// Fixed slot count per shard pair. 64 events/window/pair covers every
  /// workload the suite runs (incast at 1024 nodes peaks well below it);
  /// overflow is correct, just a one-time vector growth.
  static constexpr std::size_t kSlots = 64;

  MailboxRing() { slots_.resize(kSlots); }

  /// Producer side (source shard's worker, run phase only).
  template <typename F>
  void push(Time when, std::uint64_t seq, std::uint32_t src, F&& fn) {
    RemoteEvent* ev;
    if (count_ < slots_.size()) {
      ev = &slots_[count_++];
    } else {
      spill_.emplace_back();
      ev = &spill_.back();
    }
    ev->when = when;
    ev->seq = seq;
    ev->src = src;
    ev->fn.emplace(std::forward<F>(fn));
    if (when < minWhen_) minWhen_ = when;
  }

  bool empty() const { return count_ == 0 && spill_.empty(); }
  std::size_t size() const { return count_ + spill_.size(); }
  /// Earliest `when` among the pending messages, +inf when empty.
  Time minWhen() const { return minWhen_; }

  /// Consumer side (destination shard's worker, before it runs the next
  /// window): move every pending message into `out` in append order and
  /// leave the ring empty. Slot and spill storage is retained.
  void drainInto(std::vector<RemoteEvent>& out) {
    for (std::size_t i = 0; i < count_; ++i)
      out.push_back(std::move(slots_[i]));
    for (RemoteEvent& ev : spill_) out.push_back(std::move(ev));
    count_ = 0;
    spill_.clear();
    minWhen_ = std::numeric_limits<Time>::infinity();
  }

 private:
  std::vector<RemoteEvent> slots_;
  std::size_t count_ = 0;
  std::vector<RemoteEvent> spill_;
  Time minWhen_ = std::numeric_limits<Time>::infinity();
};

}  // namespace comb::sim
