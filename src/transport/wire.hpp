// Wire payload shared by the NIC models: every fabric packet carries one
// WirePayload describing which protocol message (or fragment of one) it is.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "mpi/types.hpp"
#include "net/packet.hpp"
#include "transport/data.hpp"

namespace comb::transport {

enum class WireKind : std::uint8_t {
  Eager,  ///< self-describing data message (matching info + data)
  Rts,    ///< rendezvous request-to-send (control)
  Cts,    ///< rendezvous clear-to-send (control)
  Data,   ///< rendezvous payload addressed to a receiver handle
  Ack,    ///< per-fragment reliability acknowledgement (lossy fabrics only)
};

inline const char* wireKindName(WireKind k) {
  switch (k) {
    case WireKind::Eager: return "Eager";
    case WireKind::Rts: return "Rts";
    case WireKind::Cts: return "Cts";
    case WireKind::Data: return "Data";
    case WireKind::Ack: return "Ack";
  }
  return "?";
}

/// The wire-visible content of a payload, separated from the PayloadBase
/// machinery so pooled payloads can be reset/cloned by plain assignment
/// (see transport/payload_pool.hpp).
struct WireFields {
  WireKind kind = WireKind::Eager;
  std::uint64_t msgId = 0;      ///< sender-scoped message identifier
  std::uint32_t fragIndex = 0;
  std::uint32_t fragCount = 1;
  mpi::Envelope env;            ///< valid for Eager and Rts
  Bytes msgBytes = 0;           ///< full message payload length
  std::uint64_t senderHandle = 0;  ///< sender request handle (Rts; echoed in Cts)
  std::uint64_t recvHandle = 0;    ///< receiver request handle (Cts; echoed in Data)
  /// Per-(sender, destination) matching sequence number carried by
  /// envelope-bearing messages (Eager, Rts). The receiving library matches
  /// envelopes in this order even when the NIC's priority scheduler lets a
  /// small control packet arrive before an earlier message's data — MPI's
  /// non-overtaking rule restored in software, as MPICH does.
  std::uint64_t matchSeq = 0;
  /// For Ack packets: the fragment index being acknowledged (msgId names
  /// the acked message; fragIndex is the ack packet's own index, always 0).
  std::uint32_t ackFragIndex = 0;
  DataBuffer data;              ///< whole-message buffer (fragments alias it)
};

struct WirePayload : net::PayloadBase, WireFields {
  static constexpr net::PayloadKind kPayloadKind = net::PayloadKind::Wire;
  WirePayload() : net::PayloadBase(kPayloadKind) {}

  WireFields& fields() { return *this; }
  const WireFields& fields() const { return *this; }
};

/// A whole inbound message as the receive path hands it on: the wire
/// fields of its fragment 0 (data included) and the node that sent it.
struct Arrival : WireFields {
  net::NodeId srcNode = -1;
};

}  // namespace comb::transport
