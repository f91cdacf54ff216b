// GM-style OS-bypass NIC model (Myrinet LANai running the GM MCP).
//
// Behavioural contract, matching the paper's description of GM:
//  * Sending: once a message descriptor is handed over, the NIC fragments
//    and streams it onto the wire *autonomously* — no host CPU, no
//    interrupts. The transmit scheduler works at fragment granularity:
//    control messages (RTS/CTS, single small packets) have priority and
//    slip in between data fragments, exactly like a packetized network —
//    a control packet never waits behind a whole queued message. Data
//    messages transmit their fragments contiguously, FIFO per NIC.
//  * Receiving: fragments are assembled and deposited into host memory by
//    NIC DMA; arrival produces an entry in a user-level event queue that
//    the *library* polls. No interrupt is ever raised.
//
// On a lossy fabric (FaultSpec) the NIC additionally runs a per-fragment
// ack protocol: the receive side acknowledges and de-duplicates fragments
// in firmware (no host cost), while the transmit side tracks unacked
// fragments and arms a backoff timer. Crucially the NIC *cannot*
// retransmit on its own — GM progress is library-driven — so a timeout
// only queues a Timeout event; the library reacts during a later MPI call
// via link().plan()/executeRetransmit(), paying host CPU to re-stage the
// data. The ack protocol itself is the shared nic::ReliableLink.
//
// Everything protocol-level (eager vs rendezvous, matching) lives above,
// in transport::GmEndpoint — the NIC is a packet engine.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/latency_recorder.hpp"
#include "common/units.hpp"
#include "net/fabric.hpp"
#include "nic/reassembler.hpp"
#include "nic/reliable_link.hpp"
#include "sim/shard_context.hpp"
#include "transport/reliability.hpp"
#include "transport/wire.hpp"

namespace comb::nic {

/// A completed NIC-level event, visible to the library on poll.
///  * MsgArrived: the whole message, as the reassembler hands it on.
///  * SendDone: outbound DMA finished (buffer reusable); `senderHandle`
///    is the MPI send handle the message carried.
///  * Timeout: `msgId` has unacked fragments; the library must act.
struct GmEvent : transport::Arrival {
  enum class Type { MsgArrived, SendDone, Timeout };
  Type type = Type::MsgArrived;
  /// When the event entered the user-level queue; pop() records the
  /// queue dwell time (GM's poll lag — its defining tail behaviour).
  double queuedAt = 0;
};

class GmNic {
 public:
  GmNic(sim::ShardContext& sim, net::Fabric& fabric, net::NodeId node,
        transport::ReliabilityConfig rel = {});
  GmNic(const GmNic&) = delete;
  GmNic& operator=(const GmNic&) = delete;

  /// Hand a message to the NIC for autonomous transmission. `wireBytes`
  /// is what travels (control messages are small); `msgBytes` is the
  /// declared MPI message length carried in the metadata. If
  /// `reportSendDone`, a SendDone event carrying `senderHandle` is queued
  /// when the last fragment has left host memory (on a lossy fabric: when
  /// every fragment has been acked). Returns the NIC-level message id.
  std::uint64_t sendMessage(net::NodeId dst, transport::WireKind kind,
                            const mpi::Envelope& env, Bytes wireBytes,
                            Bytes msgBytes, transport::DataBuffer data,
                            std::uint64_t senderHandle,
                            std::uint64_t recvHandle, bool reportSendDone,
                            std::uint64_t matchSeq = 0);

  /// Poll the user-level event queue (library context; zero cost here —
  /// the caller charges it).
  std::optional<GmEvent> pop();

  /// Packet entry point — wire this as the node's fabric delivery sink.
  void deliver(net::Packet p);

  net::NodeId node() const { return node_; }
  std::uint64_t messagesSent() const { return messagesSent_; }
  std::uint64_t messagesDelivered() const { return messagesDelivered_; }

  /// Set a hook invoked whenever an event is queued (the endpoint uses it
  /// to version its activity signal).
  void setEventHook(std::function<void()> hook) {
    eventHook_ = std::move(hook);
  }

  // --- reliability (library-facing) --------------------------------------
  /// The ack/retransmit engine (enabled when the fabric can lose
  /// packets); the library plans a Timeout event's retransmission through
  /// link().plan().
  const ReliableLink& link() const { return link_; }
  /// Re-enqueue the missing fragments of msgId and re-arm its timer with
  /// one more round of backoff. Library context; the caller has already
  /// charged the host CPU per its plan.
  void executeRetransmit(std::uint64_t msgId);

 private:
  struct TxMsg {
    net::NodeId dst = -1;
    std::uint64_t msgId = 0;
    MessageMeta meta;  ///< template for frags
    Bytes wireBytes = 0;
    std::uint32_t nextFrag = 0;
    bool reportSendDone = false;
    bool control = false;
    /// Retransmission: explicit fragment indices to send (empty =
    /// initial transmission, all fragments in order).
    std::vector<std::uint32_t> fragList;
  };

  void pushEvent(GmEvent ev);
  void pushSendDone(std::uint64_t senderHandle);
  /// Transmit scheduler: one fragment at a time; control queue first.
  void pumpTx();
  /// The timeout policy: GM progress is library-driven, so the NIC can
  /// only queue a Timeout event for the library.
  void onTimeout(std::uint64_t msgId);
  /// Firmware ack, queued on the control lane like any control packet.
  void sendAck(net::NodeId dst, std::uint64_t msgId, std::uint32_t fragIndex);

  sim::ShardContext& sim_;
  net::Fabric& fabric_;
  net::NodeId node_;
  /// Registry counters, cached at construction (no lookup per event).
  struct NicCounters {
    metrics::Counter& sent;
    metrics::Counter& delivered;
    metrics::Counter& fragsTx;
  } counters_;
  ReliableLink link_;
  /// "nic.gm.n<id>.event_wait": time each event sits in the user-level
  /// queue before the library polls it.
  LatencyRecorder& eventWaitLatency_;
  std::deque<GmEvent> events_;
  std::function<void()> eventHook_;

  std::deque<TxMsg> ctrlQ_;
  std::deque<TxMsg> dataQ_;
  bool txBusy_ = false;

  Reassembler rx_;

  std::uint64_t nextMsgId_ = 1;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t messagesDelivered_ = 0;
};

}  // namespace comb::nic
