// The simulator's pending-event set: a slab-allocated event pool indexed
// by packed 128-bit keys held in a 4-ary min-heap plus a sorted drain
// stack for bursts (see the store comment inside). Ordering is (time, seq);
// the sequence number makes same-timestamp events FIFO, which is what
// makes every simulation bit-reproducible.
//
// Hot-path design (this is the inner loop of every figure sweep):
//   * Event closures are InplaceFn — capture state lives inline in the
//     pool slot, so steady-state scheduling performs zero heap
//     allocations once the slab has reached its high-water mark.
//   * The slab is chunked (fixed-size arrays, never reallocated), so slot
//     addresses are stable for the queue's lifetime. That is what lets
//     runNext() execute a closure in place — events fired while it runs
//     can grow the pool without moving the running closure.
//   * A heap entry packs (when, seq, slot) into one 128-bit integer.
//     Virtual time is non-negative, and the IEEE-754 bit pattern of a
//     non-negative double orders like the double itself, so a single
//     integer comparison orders by (when, seq) — no branchy two-field
//     comparator on the sift path. push() canonicalises -0.0 and asserts
//     when >= 0.
//   * A pool slot is identified by (index, seq). The slot records the
//     seq of its current occupant (kDeadSeq when free); a mismatch with a
//     handle's (or heap entry's) seq means the slot was recycled, so
//     stale handles and lazily-abandoned heap entries are detected in
//     O(1) without any shared_ptr/weak_ptr refcounting. seq is never
//     reused (44 bits, asserted), so the check cannot be fooled.
//   * Cancellation releases the slot immediately (destroying the closure
//     and returning the slot to the free list); the heap entry is dropped
//     lazily when it surfaces. This keeps cancel() O(1) — the preemptible
//     CPU model cancels and reschedules completion events on every
//     interrupt.
//
// Capacity: seq < 2^44 events per queue lifetime, slot < 2^20 events
// pending at once — both asserted, both far beyond any COMB sweep.
//
// Contracts: nextTime(), pop() and runNext() require !empty() (asserted);
// empty() itself prunes stale heap entries and is the only safe way to
// test for pending work. EventHandles must not outlive the EventQueue
// they came from (they hold a raw back-pointer; in practice handles live
// inside simulation components owned by the same ShardContext).
//
// Destroying the queue destroys every unfired closure, releasing whatever
// they captured — this is what guarantees a ShardContext torn down early
// does not leak deferred-spawn tasks.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/inplace_fn.hpp"

namespace comb::sim {

/// Inline capacity for event closures. Budget for the largest real
/// closures on the hot path: `Link::send`'s delivery lambda (`this` + a
/// 40-byte Packet) and `ShardContext::spawn`'s deferred-start lambda
/// (`this` + a Task + a std::string name) — both exactly 48 bytes.
/// Chosen so a pool Slot (buffer + ops pointer + seq) is exactly one
/// 64-byte cache line. Oversized captures fail to compile (see
/// sim/inplace_fn.hpp); box rare large state in a unique_ptr rather
/// than raising this.
inline constexpr std::size_t kEventClosureCapacity = 48;

using EventFn = InplaceFn<kEventClosureCapacity>;

class EventQueue;

/// A cancellable reference to a scheduled event. Default-constructed
/// handles are inert. Holding a handle does not keep the event alive past
/// execution, and a handle is invalidated (becomes a no-op) the moment
/// its event fires or is cancelled — even if the slot is later reused.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent.
  inline void cancel();

  /// True while the event is still scheduled (not fired, not cancelled).
  inline bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(EventQueue* q, std::uint32_t slot, std::uint64_t seq)
      : queue_(q), slot_(slot), seq_(seq) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t seq_ = 0;
};

class EventQueue {
#if defined(__SIZEOF_INT128__)
  __extension__ using Key = unsigned __int128;
#else
#error "EventQueue requires a 128-bit integer type (GCC/Clang)"
#endif

  static constexpr std::uint32_t kChunkShift = 8;                // 256 slots
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr int kSlotBits = 20;
  static constexpr std::uint64_t kMaxSlots = 1ull << kSlotBits;
  static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
  static constexpr std::uint64_t kDeadSeq = ~std::uint64_t{0};   // free slot

 public:
  EventQueue() { heap_.reserve(kChunkSize); }

  /// Schedule `fn` at virtual time `when`. Accepts any callable that an
  /// EventFn can hold (enforced by InplaceFn's constraints) and
  /// constructs it directly in the pool slot — passing a raw lambda here
  /// skips the type-erased relocation that materialising an EventFn
  /// first would cost.
  template <typename F>
    requires std::is_constructible_v<EventFn, F&&>
  EventHandle push(Time when, F&& fn) {
    COMB_ASSERT(when >= 0.0, "event scheduled at negative virtual time");
    when += 0.0;  // canonicalise -0.0: only non-negative bits order as keys
    const std::uint64_t seq = nextSeq_++;
    COMB_ASSERT(seq < kMaxSeq, "event sequence space exhausted");
    std::uint32_t slot;
    if (!freeSlots_.empty()) {
      slot = freeSlots_.back();
      freeSlots_.pop_back();
    } else {
      slot = slotCount_++;
      COMB_ASSERT(slot < kMaxSlots, "event pool slot space exhausted");
      if ((slot >> kChunkShift) == chunks_.size())
        chunks_.emplace_back(new Slot[kChunkSize]);
    }
    Slot& s = slotRef(slot);
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, EventFn>)
      s.fn = std::forward<F>(fn);
    else
      s.fn.emplace(std::forward<F>(fn));
    s.seq = seq;
    // Append only — the entry is folded into heap order lazily at the
    // next top access (see ensureOrdered), so a burst of schedules
    // costs O(1) each plus one linear-time heapify, not a sift per push.
    heap_.push_back((Key{std::bit_cast<std::uint64_t>(when)} << 64) |
                    (Key{seq} << kSlotBits) | slot);
    return EventHandle{this, slot, seq};
  }

  bool empty() {
    skipStale();
    return noEntries();
  }

  /// Earliest live event's time. Requires !empty().
  Time nextTime() {
    skipStale();
    COMB_ASSERT(!noEntries(), "nextTime() on an empty event queue");
    return whenOf(frontKey());
  }

  /// Execute the earliest live event in place (no closure move), after
  /// calling `pre(when)` — the simulator's clock/trace bookkeeping. The
  /// closure runs directly from its pool slot: chunked storage keeps the
  /// slot's address stable even when the closure schedules new events,
  /// and the slot is marked dead before invocation so self-cancel is a
  /// no-op. Returns the event's time. Requires !empty().
  template <typename Pre>
  Time runNext(Pre&& pre) {
    skipStale();
    COMB_ASSERT(!noEntries(), "runNext() on an empty event queue");
    return fireFront(std::forward<Pre>(pre));
  }

  /// If the earliest live event is at time <= `until`, execute it (as
  /// runNext) and return true; otherwise — or when the queue is empty —
  /// return false. This is the simulator's whole per-event loop body:
  /// one stale-prune and one heap access decide both "is there work"
  /// and "is it due", where separate empty()/nextTime()/runNext() calls
  /// would redo that bookkeeping three times per event.
  template <typename Pre>
  bool runNextUpTo(Time until, Pre&& pre) {
    skipStale();
    if (noEntries() || whenOf(frontKey()) > until) return false;
    fireFront(std::forward<Pre>(pre));
    return true;
  }

  /// Like runNextUpTo, but with a *strict* bound: only events with time
  /// < `bound` fire. This is the PDES window loop body — a conservative
  /// time window [W, W + lookahead) is open on the right, because a
  /// cross-shard message generated inside the window can carry a
  /// timestamp of exactly W + lookahead and must still be delivered
  /// before any local event at that time is considered.
  template <typename Pre>
  bool runNextBefore(Time bound, Pre&& pre) {
    skipStale();
    if (noEntries() || whenOf(frontKey()) >= bound) return false;
    fireFront(std::forward<Pre>(pre));
    return true;
  }

  /// Pop and return the earliest live event's action (with its time).
  /// Requires !empty(). Slow path (two closure relocations) — the
  /// simulator uses runNext(); this remains for direct-queue callers.
  std::pair<Time, EventFn> pop() {
    skipStale();
    COMB_ASSERT(!noEntries(), "pop() on an empty event queue");
    const Key e = frontKey();
    popFront();
    Slot& s = slotRef(slotOf(e));
    EventFn fn = std::move(s.fn);
    s.seq = kDeadSeq;
    recycleSlot(slotOf(e));
    return {whenOf(e), std::move(fn)};
  }

  std::uint64_t scheduledCount() const { return nextSeq_; }

  /// Events currently scheduled (not fired, not cancelled). Every heap
  /// entry is live except the stale remnants of cancelled events.
  std::uint64_t liveEvents() const {
    return heap_.size() + drain_.size() - staleEntries_;
  }
  /// Slab high-water mark — slots ever allocated (pool introspection).
  std::size_t poolCapacity() const { return slotCount_; }

 private:
  friend class EventHandle;

  /// Pop the front entry and run its closure in place. Requires a live
  /// front entry (callers have pruned stale ones).
  template <typename Pre>
  Time fireFront(Pre&& pre) {
    const Key e = frontKey();
    popFront();
    // Prefetch the next few events' slots: big simulations visit slots
    // in time order, not pool order, so those lines are usually cold,
    // and one event of work is too little to cover a memory fetch.
    // Drain entries are exact next-to-run predictions; heap root-region
    // entries are best guesses (pushes from the running closure can
    // displace them — a harmless mispredict; stale entries still point
    // at valid pool memory, so this is always safe).
    if (const std::size_t m = drain_.size(); m != 0) {
      const std::size_t end = m < 3 ? m : 3;
      for (std::size_t c = 1; c <= end; ++c)
        prefetchSlot(slotOf(drain_[m - c]));
    }
    if (const std::size_t n = heap_.size(); n != 0) {
      const std::size_t end = n < 5 ? n : 5;
      for (std::size_t c = 0; c < end; ++c) prefetchSlot(slotOf(heap_[c]));
    }
    const std::uint32_t slot = slotOf(e);
    Slot& s = slotRef(slot);
    s.seq = kDeadSeq;
    // Destroys the closure and recycles the slot on both the normal and
    // the unwinding path (a throwing event must not leak its captures).
    struct Finish {
      EventQueue* q;
      std::uint32_t slot;
      ~Finish() { q->recycleSlot(slot); }
    } finish{this, slot};
    const Time when = whenOf(e);
    pre(when);
    s.fn();
    return when;
  }

  struct alignas(64) Slot {  // exactly one cache line (see capacity note)
    EventFn fn;
    std::uint64_t seq = kDeadSeq;  ///< seq of the occupant; kDeadSeq if free
  };
  static_assert(sizeof(Slot) == 64);

  static std::uint32_t slotOf(Key e) {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(e) &
                                      (kMaxSlots - 1));
  }
  static std::uint64_t seqOf(Key e) {
    return static_cast<std::uint64_t>(e) >> kSlotBits;
  }
  static Time whenOf(Key e) {
    return std::bit_cast<Time>(static_cast<std::uint64_t>(e >> 64));
  }

  Slot& slotRef(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  const Slot& slotRef(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  void prefetchSlot(std::uint32_t slot) const {
#if defined(__GNUC__)
    __builtin_prefetch(&slotRef(slot), 1 /*for write*/, 1);
#endif
  }

  bool slotMatches(std::uint32_t slot, std::uint64_t seq) const {
    return slot < slotCount_ && slotRef(slot).seq == seq;
  }

  /// Destroy the slot's closure (if any) in place, then return the slot
  /// to the free list. The destruction order is re-entrancy-safe without
  /// moving the closure out first: while the destructor runs the slot is
  /// dead (seq == kDeadSeq) but not yet on the free list, so a destructor
  /// that re-enters the queue (a captured Task's teardown can cancel or
  /// schedule) cannot be handed this slot mid-teardown.
  void recycleSlot(std::uint32_t slot) {
    slotRef(slot).fn.reset();
    freeSlots_.push_back(slot);
  }

  void cancelEvent(std::uint32_t slot, std::uint64_t seq) {
    // Releasing eagerly (rather than flagging) destroys the closure now,
    // freeing captured resources; the heap entry goes stale and is
    // pruned by skipStale() when it reaches the top.
    if (!slotMatches(slot, seq)) return;
    slotRef(slot).seq = kDeadSeq;
    ++staleEntries_;
    recycleSlot(slot);
  }

  bool eventPending(std::uint32_t slot, std::uint64_t seq) const {
    return slotMatches(slot, seq);
  }

  bool entryLive(Key e) const { return slotRef(slotOf(e)).seq == seqOf(e); }

  bool noEntries() const { return heap_.empty() && drain_.empty(); }

  /// Smallest pending key across both stores. Requires !noEntries().
  /// Keys are globally unique (seq never repeats), so the minimum — and
  /// with it the pop order — is independent of which store holds what.
  Key frontKey() const {
    if (drain_.empty()) return heap_.front();
    if (heap_.empty() || drain_.back() < heap_.front()) return drain_.back();
    return heap_.front();
  }

  /// Remove the entry frontKey() returned. Requires !noEntries().
  void popFront() {
    if (!drain_.empty() &&
        (heap_.empty() || drain_.back() < heap_.front()))
      drain_.pop_back();
    else
      heapPopTop();
  }

  // Pending entries live in two stores, both surfacing their minimum in
  // O(1); the queue's front is the smaller of the two minima:
  //   * drain_ — keys sorted descending, so back() is the minimum and a
  //     pop is O(1). Filled in one shot when a burst of pushes arrives
  //     with nothing else in flight (sweep-point startup, batch
  //     injection): one sequential sort then replaces heapify plus a
  //     sift-down per pop, and the next events to run are known exactly,
  //     which makes their slot prefetches always right.
  //   * heap_ — 4-ary min-heap over packed keys for everything scheduled
  //     while a drain is in progress (the general interleaved case),
  //     lazily ordered: heap_[0..ordered_) satisfies the heap property,
  //     entries beyond are an unordered tail of recent pushes. The tail
  //     is folded in at the next top access — one sift-up per entry when
  //     small, one O(n) Floyd rebuild when a burst accumulated.
  // Ordering is a pure function of the (unique) keys, so the store split
  // and build strategy cannot affect pop order, i.e. determinism.
  // A child block (4 entries x 16 bytes) is exactly one cache line, so a
  // sift-down level costs one line fetch. Sifts move a hole instead of
  // swapping.

  /// Place `v`, conceptually at index `i`, into the heap prefix [0, n).
  // 4-ary: one node's children fill exactly one cache line of keys, and
  // measured against 2-ary (deeper) and 8-ary (more compares per level)
  // this arity wins on the schedule/run benchmark at every queue depth.
  static constexpr std::size_t kAryShift = 2;
  static constexpr std::size_t kAry = std::size_t{1} << kAryShift;

  void siftDownHole(std::size_t i, Key v, std::size_t n) {
    for (;;) {
      const std::size_t child = (i << kAryShift) + 1;
      if (child >= n) break;
      std::size_t m = child;
      const std::size_t end = child + kAry < n ? child + kAry : n;
      for (std::size_t c = child + 1; c < end; ++c)
        if (heap_[c] < heap_[m]) m = c;
      if (v <= heap_[m]) break;
      heap_[i] = heap_[m];
      i = m;
    }
    heap_[i] = v;
  }

  void siftUp(std::size_t i) {
    const Key e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) >> kAryShift;
      if (heap_[parent] <= e) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  /// Below this size a burst is not worth a sort — heap sifts on a
  /// cache-resident array are already cheap.
  static constexpr std::size_t kSortDrainMin = 64;

  void ensureOrdered() {
    const std::size_t n = heap_.size();
    if (ordered_ == n) return;
    if (ordered_ == 0 && drain_.empty() && n >= kSortDrainMin) {
      // Nothing in flight and a whole burst pending: sort it once and
      // drain from the back (see the store comment below).
      std::sort(heap_.begin(), heap_.end(),
                [](Key a, Key b) { return a > b; });
      drain_.swap(heap_);  // heap_ is now empty; ordered_ == 0 == size
      return;
    }
    if (n - ordered_ > ordered_ / 4 + 1) {
      // A burst of pushes since the last pop: Floyd bottom-up rebuild,
      // linear time however large the tail (amortized O(4) per push even
      // in a steady push-burst/pop cadence).
      if (n >= 2)
        for (std::size_t i = ((n - 2) >> kAryShift) + 1; i-- > 0;)
          siftDownHole(i, heap_[i], n);
    } else {
      for (std::size_t i = ordered_; i < n; ++i) siftUp(i);
    }
    ordered_ = n;
  }

  /// Pre: ensureOrdered() has run and the heap is non-empty.
  void heapPopTop() {
    const std::size_t n = heap_.size() - 1;
    const Key last = heap_[n];
    heap_.pop_back();
    ordered_ = n;
    if (n != 0) siftDownHole(0, last, n);
  }

  /// Drop front entries whose slot has been cancelled (released and
  /// possibly reused for a later event — detected by the seq mismatch).
  /// staleEntries_ counts cancelled entries still queued, so with no
  /// cancellations outstanding — the common case — this is one register
  /// test, no slot memory touched. Also folds pending pushes into heap
  /// order; every front access goes through here first.
  void skipStale() {
    ensureOrdered();
    while (staleEntries_ != 0 && !noEntries() && !entryLive(frontKey())) {
      popFront();
      --staleEntries_;
    }
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;  ///< stable slot storage
  std::vector<std::uint32_t> freeSlots_;
  std::vector<Key> drain_;  ///< sorted descending; back() = minimum
  std::vector<Key> heap_;
  std::size_t ordered_ = 0;  ///< heap-property prefix of heap_ (see above)
  std::uint32_t slotCount_ = 0;  ///< slots ever allocated (high-water mark)
  std::uint64_t nextSeq_ = 0;
  std::uint64_t staleEntries_ = 0;  ///< cancelled entries still queued
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancelEvent(slot_, seq_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->eventPending(slot_, seq_);
}

}  // namespace comb::sim
