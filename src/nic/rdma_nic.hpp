// RDMA-style offloading NIC model (modern hardware: ConnectX/Slingshot
// class, per "MPI Progress For All").
//
// Unlike the GM NIC (library-driven progress) and the Portals model
// (kernel interrupts per fragment), everything here is NIC-resident and
// costs ZERO host CPU:
//  * Transmit: a descriptor engine paces fragments at perFragTx each,
//    pipelined with wire serialization — no kernel pump, no interrupts.
//  * Receive: fragments are DMA'd to their destination and handed to the
//    transport's handler synchronously in NIC context; no interrupt is
//    ever raised. Matching above happens in NIC hardware (the transport
//    charges the match-unit delay itself).
//  * Reliability: a fully autonomous hardware ack/retransmit protocol —
//    unacked fragments are retained in NIC memory and replayed on
//    timeout with no host involvement (the same autonomy the Portals
//    kernel has, minus the interrupts).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "common/latency_recorder.hpp"
#include "common/units.hpp"
#include "net/fabric.hpp"
#include "nic/reliable_link.hpp"
#include "sim/shard_context.hpp"
#include "transport/reliability.hpp"
#include "transport/wire.hpp"

namespace comb::nic {

struct RdmaNicConfig {
  /// NIC descriptor-engine time per outbound fragment (WQE fetch + DMA
  /// setup) — paces injection, costs no host CPU.
  Time perFragTx = 0.15e-6;
};

class RdmaNic {
 public:
  /// Runs in NIC context (zero host cost) per received data fragment.
  using RxHandler =
      std::function<void(const transport::WirePayload&, net::NodeId)>;
  /// Runs in NIC context with the message's metadata when its last
  /// fragment entered the wire (lossless) or was fully acked (lossy).
  using TxDoneHandler = std::function<void(const transport::WireFields&)>;

  RdmaNic(sim::ShardContext& sim, net::Fabric& fabric, net::NodeId node,
          RdmaNicConfig cfg, transport::ReliabilityConfig rel = {});
  RdmaNic(const RdmaNic&) = delete;
  RdmaNic& operator=(const RdmaNic&) = delete;

  void setRxHandler(RxHandler h) { rxHandler_ = std::move(h); }
  void setTxDoneHandler(TxDoneHandler h) { txDone_ = std::move(h); }

  /// Queue a message on the descriptor engine. Returns its msgId.
  std::uint64_t sendMessage(net::NodeId dst, transport::WireKind kind,
                            const mpi::Envelope& env, Bytes wireBytes,
                            Bytes msgBytes, transport::DataBuffer data,
                            std::uint64_t senderHandle,
                            std::uint64_t recvHandle,
                            std::uint64_t matchSeq = 0);

  /// Packet entry point — wire as the node's fabric delivery sink.
  void deliver(net::Packet p);

  net::NodeId node() const { return node_; }
  std::uint64_t messagesSent() const { return messagesSent_; }
  std::uint64_t fragmentsReceived() const { return fragmentsReceived_; }
  const RdmaNicConfig& config() const { return cfg_; }

  /// The hardware ack/retransmit engine: retransmission is entirely
  /// NIC-resident and free of host CPU.
  const ReliableLink& link() const { return link_; }

 private:
  struct TxFrag {
    MessageMeta meta;
    net::NodeId dst = -1;
    std::uint32_t index = 0;
    Bytes wireBytes = 0;
    Time enqueuedAt = 0;  ///< descriptor-queue dwell (tx tail signal)
  };

  void pumpTx();

  sim::ShardContext& sim_;
  net::Fabric& fabric_;
  net::NodeId node_;
  RdmaNicConfig cfg_;
  struct NicCounters {
    metrics::Counter& sent;
    metrics::Counter& fragsTx;
    metrics::Counter& fragsRx;
  } counters_;
  ReliableLink link_;
  /// "nic.rdma.n<id>.tx_queue_wait": descriptor-queue dwell per fragment.
  LatencyRecorder& txQueueWaitLatency_;
  RxHandler rxHandler_;
  TxDoneHandler txDone_;

  /// RTS/CTS fragments bypass queued data so the autonomous rendezvous
  /// control loop never waits behind a whole in-flight message — they
  /// wait (at most) for the fragment currently serializing.
  std::deque<TxFrag> ctrlQueue_;
  std::deque<TxFrag> txQueue_;
  /// The fragment on the descriptor engine; txBusy_ guards it.
  TxFrag inFlight_;
  bool txBusy_ = false;
  std::uint64_t nextMsgId_ = 1;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t fragmentsReceived_ = 0;
};

}  // namespace comb::nic
