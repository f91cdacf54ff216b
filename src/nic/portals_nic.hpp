// Kernel-based Portals NIC model.
//
// The paper's Portals-on-Myrinet implementation does NOT use OS-bypass:
// the MCP is "simply a packet engine"; a Linux kernel module does
// reliability, flow control and message processing. We model that as:
//
//  * Transmit: each outgoing fragment costs kernel CPU (protocol work +
//    a copy through kernel buffers) charged as interrupt-level work that
//    preempts the application, then the fragment enters the wire. One
//    fragment is processed at a time (the kernel tx pump), pipelined with
//    wire serialization.
//  * Receive: every arriving fragment raises a host interrupt whose
//    service time covers protocol work plus the kernel->user (or
//    kernel-buffer) copy. The *handler* — supplied by the transport —
//    then performs matching at interrupt level. This autonomy is exactly
//    what gives Portals application offload in the paper, and the
//    interrupt+copy cost is what destroys its CPU availability.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <utility>

#include "common/latency_recorder.hpp"
#include "common/units.hpp"
#include "host/cpu.hpp"
#include "net/fabric.hpp"
#include "nic/reliable_link.hpp"
#include "sim/shard_context.hpp"
#include "transport/reliability.hpp"
#include "transport/wire.hpp"

namespace comb::nic {

struct PortalsNicConfig {
  /// Kernel CPU time to process one outbound fragment (protocol,
  /// descriptor handling), excluding the per-byte copy.
  Time perFragTx = 9e-6;
  /// Kernel CPU time per received-fragment interrupt (interrupt entry/exit
  /// plus protocol), excluding the per-byte copy.
  Time perFragRx = 20e-6;
  /// Rate of kernel-buffer copies, charged per byte on both paths.
  Rate kernelCopyRate = 280e6;
};

class PortalsNic {
 public:
  /// `rxHandler` runs at interrupt level after each fragment's service
  /// time; it receives the fragment payload and source node.
  using RxHandler =
      std::function<void(const transport::WirePayload&, net::NodeId)>;
  /// Invoked at kernel level with the message's metadata when its last
  /// fragment entered the wire (lossless) or was fully acked (lossy).
  using TxDoneHandler = std::function<void(const transport::WireFields&)>;

  PortalsNic(sim::ShardContext& sim, net::Fabric& fabric, host::Cpu& cpu,
             net::NodeId node, PortalsNicConfig cfg,
             transport::ReliabilityConfig rel = {});
  PortalsNic(const PortalsNic&) = delete;
  PortalsNic& operator=(const PortalsNic&) = delete;

  void setRxHandler(RxHandler h) { rxHandler_ = std::move(h); }
  void setTxDoneHandler(TxDoneHandler h) { txDone_ = std::move(h); }

  /// Queue a message for kernel transmission. Returns its msgId. The
  /// kernel pump charges CPU per fragment and injects them in order.
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
  const PortalsNicConfig& config() const { return cfg_; }

  /// The ack/retransmit engine. Unlike GM, retransmission here is fully
  /// NIC/kernel-resident: a timeout replays the missing fragments from
  /// NIC buffers autonomously, with zero host CPU and no library
  /// involvement.
  const ReliableLink& link() const { return link_; }

 private:
  struct TxFrag {
    MessageMeta meta;
    net::NodeId dst;
    std::uint32_t index;
    Bytes wireBytes;
    /// When the fragment entered the kernel tx queue; the pump records
    /// the dwell time (kernel queueing is Portals' tx tail signal).
    Time enqueuedAt = 0;
  };

  void pumpTx();

  sim::ShardContext& sim_;
  net::Fabric& fabric_;
  host::Cpu& cpu_;
  net::NodeId node_;
  PortalsNicConfig cfg_;
  /// Registry counters, cached at construction (no lookup per fragment).
  struct NicCounters {
    metrics::Counter& sent;
    metrics::Counter& fragsTx;
    metrics::Counter& fragsRx;
  } counters_;
  ReliableLink link_;
  /// "nic.ptl.n<id>.tx_queue_wait": kernel tx-queue dwell per fragment.
  LatencyRecorder& txQueueWaitLatency_;
  RxHandler rxHandler_;
  TxDoneHandler txDone_;

  std::deque<TxFrag> txQueue_;
  bool txBusy_ = false;
  std::uint64_t nextMsgId_ = 1;
  std::uint64_t messagesSent_ = 0;
  std::uint64_t fragmentsReceived_ = 0;
};

}  // namespace comb::nic
