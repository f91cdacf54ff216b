// MPI message-matching engine: the posted-receive list and the unexpected
// message queue, with MPI's ordering rules.
//
// This is pure logic with no simulation dependencies, deliberately: every
// simulated stack runs the same engine from its transport::Endpoint — GM
// and the progress thread "in the library" (driven by MPI calls or a
// progress engine), Portals "in the kernel" (driven by interrupt
// handlers), RDMA "in the NIC" (the hardware match unit) — and the native
// thread backend wraps it in a mutex. One matching semantics, five
// drivers — mirroring how MPICH layered over GM and Portals in the paper.
//
// The engine is a template on `Held`, the driver's own record of an
// unexpected message (its payload and whatever the driver needs to finish
// it later), stored inline beside the envelope: no driver keeps a side
// table.
//
// Ordering rules implemented (MPI 1.1 §3.5 "non-overtaking"):
//  * posted receives are matched against an arrival in post order;
//  * unexpected messages are matched against a new receive in arrival
//    order;
//  * two messages from the same sender that both match a receive are
//    consumed in send order (guaranteed because arrivals are processed in
//    order and queue FIFO).
//
// Both directions check the size rule: a message longer than the receive
// that takes it is a fatal error, whichever side arrived first.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/units.hpp"
#include "mpi/types.hpp"

namespace comb::mpi {

/// Caller-chosen identifier of a posted receive (typically the MPI-layer
/// request handle).
using MatchCookie = std::uint64_t;

struct PostedRecv {
  MatchCookie cookie = 0;
  Pattern pattern;
  Bytes maxBytes = 0;
};

/// A queued unexpected message, with the driver's record held inline.
template <class Held>
struct UnexpectedMsg {
  Envelope env;
  Bytes bytes = 0;
  Held held;
};

template <class Held>
class MatchEngine {
 public:
  using Unexpected = UnexpectedMsg<Held>;

  /// Add a receive to the posted list under a caller-chosen cookie.
  void postRecv(const Pattern& pattern, Bytes maxBytes, MatchCookie cookie) {
    posted_.push_back(PostedRecv{cookie, pattern, maxBytes});
  }

  /// Match an arriving `bytes`-long message against posted receives (in
  /// post order). On success the receive is removed and returned.
  std::optional<PostedRecv> matchArrival(const Envelope& env, Bytes bytes) {
    for (auto it = posted_.begin(); it != posted_.end(); ++it) {
      if (!it->pattern.matches(env)) continue;
      COMB_ASSERT(bytes <= it->maxBytes,
                  "message exceeds posted receive buffer");
      PostedRecv hit = *it;
      posted_.erase(it);
      return hit;
    }
    return std::nullopt;
  }

  /// Remove a posted receive (MPI_Cancel). Returns false if it already
  /// matched (too late to cancel).
  bool cancelRecv(MatchCookie cookie) {
    const auto it = std::find_if(
        posted_.begin(), posted_.end(),
        [cookie](const PostedRecv& r) { return r.cookie == cookie; });
    if (it == posted_.end()) return false;
    posted_.erase(it);
    return true;
  }

  /// Queue an unexpected message (no posted receive matched).
  void addUnexpected(const Envelope& env, Bytes bytes, Held held) {
    unexpected_.push_back(Unexpected{env, bytes, std::move(held)});
    unexpectedBytes_ += bytes;
  }

  /// Claim the earliest queued message a new receive of `maxBytes`
  /// matches (in arrival order). On success the entry is removed and
  /// returned.
  std::optional<Unexpected> matchUnexpected(const Pattern& pattern,
                                            Bytes maxBytes) {
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      if (!pattern.matches(it->env)) continue;
      COMB_ASSERT(it->bytes <= maxBytes,
                  "unexpected message exceeds posted receive buffer");
      Unexpected hit = std::move(*it);
      unexpected_.erase(it);
      COMB_ASSERT(unexpectedBytes_ >= hit.bytes, "unexpected byte underflow");
      unexpectedBytes_ -= hit.bytes;
      return hit;
    }
    return std::nullopt;
  }

  /// Probe: the entry matchUnexpected would claim, without consuming it
  /// (null when none matches).
  const Unexpected* peekUnexpected(const Pattern& pattern) const {
    for (const auto& msg : unexpected_)
      if (pattern.matches(msg.env)) return &msg;
    return nullptr;
  }

  std::size_t postedCount() const { return posted_.size(); }
  std::size_t unexpectedCount() const { return unexpected_.size(); }
  Bytes unexpectedBytes() const { return unexpectedBytes_; }

 private:
  std::deque<PostedRecv> posted_;
  std::deque<Unexpected> unexpected_;
  Bytes unexpectedBytes_ = 0;
};

}  // namespace comb::mpi
