// RDMA-offload transport model (hardware matching, autonomous
// rendezvous, no interrupts).
//
// The modern point in the progress-model space ("MPI Progress For All"):
// MPI matching lives in NIC hardware against pre-posted receive entries,
// and the rendezvous control loop runs NIC-to-NIC:
//  * Posting a receive programs a hardware match entry — a doorbell
//    write plus WQE setup, a couple of microseconds, after which the
//    host is out of the picture.
//  * Eager (<= eagerThreshold): the NIC DMAs straight from the
//    registered user buffer; at the receiver the match unit resolves the
//    envelope (matchDelay in silicon) and DMAs into the posted buffer.
//    No host copy in the expected case.
//  * Rendezvous (> eagerThreshold): the RTS is matched in hardware and
//    the receiving NIC answers CTS *itself*; the sending NIC reacts to
//    the CTS by starting the data DMA *itself*. No host CPU on either
//    side, no interrupts, no library calls — full application offload at
//    near-zero availability cost.
//  * Unexpected messages are the escape hatch back to the host: the NIC
//    deposits them in host bounce buffers and the late-posted receive
//    pays a host copy (eager) or sends the deferred CTS (rendezvous)
//    when it claims them.
//
// Consequence (the expected figure shape): Portals-class offload with
// GM-class availability — the quadrant neither 2002 stack could reach.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/units.hpp"
#include "host/cpu.hpp"
#include "net/fabric.hpp"
#include "nic/rdma_nic.hpp"
#include "nic/reassembler.hpp"
#include "sim/shard_context.hpp"
#include "transport/endpoint.hpp"
#include "transport/reliability.hpp"
#include "transport/send_order.hpp"

namespace comb::transport {

struct RdmaConfig {
  Bytes eagerThreshold = 16 * 1024;
  /// Doorbell write + WQE setup per posted operation (send or receive).
  Time postOverhead = 1.5e-6;
  /// Base CPU cost of one MPI library call (completion-queue poll).
  Time libCallCost = 0.5e-6;
  /// Hardware match-unit latency per arriving message / RTS.
  Time matchDelay = 0.4e-6;
  /// Host copy rate when a late-posted receive claims an unexpected
  /// eager message out of the bounce buffers.
  Rate unexpectedCopyRate = 400e6;
  /// Wire payload of RTS/CTS control packets.
  Bytes ctrlBytes = 32;
  nic::RdmaNicConfig nic;
  /// Hardware ack/retransmit parameters (engaged only on lossy fabrics).
  ReliabilityConfig rel;
};

class RdmaEndpoint final : public Endpoint {
 public:
  RdmaEndpoint(sim::ShardContext& sim, host::Cpu& cpu, net::Fabric& fabric,
               net::NodeId node, RdmaConfig cfg);

  sim::Task<void> postSend(TxReq req) override;
  sim::Task<void> postRecv(RxReq req) override;
  sim::Task<void> progress() override;
  sim::Task<bool> cancelRecv(std::uint64_t handle) override;
  bool applicationOffload() const override { return true; }
  Time libCallCost() const override { return cfg_.libCallCost; }
  net::NodeId nodeId() const override { return node_; }
  void deliver(net::Packet p) override { nic_.deliver(std::move(p)); }
  const nic::ReliableLink& link() const override { return nic_.link(); }

  nic::RdmaNic& nic() { return nic_; }
  const nic::RdmaNic& nic() const { return nic_; }
  const RdmaConfig& config() const { return cfg_; }
  /// Messages that missed the hardware match and fell back to host
  /// bounce buffers.
  std::uint64_t unexpectedFallbacks() const { return unexpectedFallbacks_; }

 private:
  /// Rendezvous send awaiting the (hardware-generated) CTS.
  struct PendingTx {
    TxReq req;
  };

  /// NIC-context receive path: hardware assembly + matching, zero host.
  void hwRx(const WirePayload& frag, net::NodeId src);
  /// A fully-assembled message reaches the NIC's protocol engine.
  void hwMessage(Arrival done);
  /// The hardware match unit resolves an envelope-bearing message (Eager,
  /// Rts); a hit completes after matchDelay.
  void hwMatch(Arrival msg);

  sim::ShardContext& sim_;
  host::Cpu& cpu_;
  net::NodeId node_;
  RdmaConfig cfg_;
  nic::RdmaNic nic_;

  nic::Reassembler rx_;
  SendOrderGate<Arrival> order_;  // MPI non-overtaking across peers
  std::unordered_map<std::uint64_t, PendingTx> pendingTx_;  // by MPI handle
  std::uint64_t unexpectedFallbacks_ = 0;
  metrics::Counter& fallbackCounter_;  ///< "rdma.n<id>.unexpected_fallbacks"
};

}  // namespace comb::transport
