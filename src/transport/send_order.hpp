// MPI's non-overtaking rule on the receive path: envelopes from one sender
// are matched in the order that sender posted them.
//
// A stack's transmit side can reorder messages to the same peer (GM's and
// RDMA's control lanes let an RTS slip past an earlier eager message's
// data) and a lossy fabric can deliver a retransmitted fragment after a
// later message. So every envelope-bearing send (Eager, Rts) is stamped
// with a per-destination sequence number, and the receiver matches
// arrivals only in that order, holding early ones back — as MPICH does.
//
// The receiving stack drives the gate:
//   for (auto due = gate.admit(src, seq, msg); due; due = gate.release(src))
//     match(*due);
// admit() hands a message back when it is the one expected next; release()
// marks it matched and hands back the next one if it is already held. A
// stack whose match can stay undecided for a while (Portals matches on
// fragment 0 and again at completion) calls release() only once the match
// is settled, so later messages wait behind it.
//
// The gate holds what its stack needs back: GM and RDMA hold the whole
// Arrival; Portals holds only the msgId, since the message itself stays
// in its reassembler entry until it is matched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "net/packet.hpp"

namespace comb::transport {

template <typename Held>
class SendOrderGate {
 public:
  /// Sender side: the matching sequence number of the next
  /// envelope-bearing send to `dst`.
  std::uint64_t stamp(net::NodeId dst) { return at(nextTx_, dst)++; }

  /// Receiver side: `held` when `seq` is the one expected next from
  /// `src`; otherwise it is held and nullopt returned.
  std::optional<Held> admit(net::NodeId src, std::uint64_t seq, Held held) {
    const std::uint64_t expected = at(expected_, src);
    if (seq == expected) return held;
    COMB_ASSERT(seq > expected, "duplicate matching sequence");
    held_.emplace(std::pair{src, seq}, std::move(held));
    return std::nullopt;
  }

  /// The due message from `src` is matched: expect the next one, and hand
  /// it back if it is already held.
  std::optional<Held> release(net::NodeId src) {
    const std::uint64_t next = ++at(expected_, src);
    const auto it = held_.find(std::pair{src, next});
    if (it == held_.end()) return std::nullopt;
    Held held = std::move(it->second);
    held_.erase(it);
    return held;
  }

  /// True when `seq` is the one expected next from `src`.
  bool due(net::NodeId src, std::uint64_t seq) const {
    const auto idx = static_cast<std::size_t>(src);
    return seq == (idx < expected_.size() ? expected_[idx] : 0);
  }

 private:
  /// `seqs`' entry for `node`, growing the table on first contact.
  static std::uint64_t& at(std::vector<std::uint64_t>& seqs, net::NodeId node) {
    const auto idx = static_cast<std::size_t>(node);
    if (idx >= seqs.size()) seqs.resize(idx + 1, 0);
    return seqs[idx];
  }

  std::vector<std::uint64_t> nextTx_;    // next to use, per destination
  std::vector<std::uint64_t> expected_;  // next expected, per source
  std::map<std::pair<net::NodeId, std::uint64_t>, Held> held_;
};

}  // namespace comb::transport
