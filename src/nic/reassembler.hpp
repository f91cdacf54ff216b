// Fragment reassembly, the first step of every stack's receive path (GM's
// NIC, the Portals kernel and the RDMA NIC all run this one table).
//
// Each fragment on the wire is a clone of its message's metadata
// (ReliableLink::injectFragment), and only fragment 0 carries the data
// buffer. So the entry a message's first-arriving fragment opens already
// holds every wire field; fragment 0 adds the buffer, and the entry is
// complete once fragCount distinct fragments have been counted. Callers
// count first sightings only: on a lossy fabric the reliability engine
// filters duplicates before a fragment gets here.
//
// An entry may also carry a claim: the posted receive that took the
// message before its last fragment landed (Portals matches on fragment 0).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "net/packet.hpp"
#include "transport/wire.hpp"

namespace comb::nic {

class Reassembler {
 public:
  struct Entry {
    transport::Arrival msg;
    std::uint32_t fragsSeen = 0;
    /// The posted receive that claimed the message early, if any.
    std::optional<std::uint64_t> claim;

    bool complete() const { return fragsSeen == msg.fragCount; }
  };

  /// Count `frag`, first seen from `src`, and return its message's entry
  /// (valid until the entry is taken).
  Entry& add(net::NodeId src, const transport::WirePayload& frag);
  /// The open entry of (src, msgId), or null.
  Entry* find(net::NodeId src, std::uint64_t msgId);
  /// Close (src, msgId)'s entry and hand it back: message and claim.
  Entry take(net::NodeId src, std::uint64_t msgId);

 private:
  std::map<std::pair<net::NodeId, std::uint64_t>, Entry> open_;
};

}  // namespace comb::nic
