// GM/MPICH-GM transport model (OS-bypass, library-driven progress).
//
// Protocol, following the paper's characterisation of MPICH over GM 1.4:
//  * Eager (<= eagerThreshold, 16 KB): the posting call copies the message
//    into NIC-reachable send buffers on the host CPU — this is the ~45 us
//    per small send the paper measures — after which the NIC streams it
//    autonomously and the send is locally complete. At the receiver the
//    NIC deposits the message; the *library* matches it and copies it to
//    the user buffer during some later MPI call.
//  * Rendezvous (> eagerThreshold): the posting call is cheap (~5 us); an
//    RTS control message travels to the receiver, whose library answers
//    with CTS *during one of its MPI calls*; the sender's library reacts
//    to the CTS *during one of its MPI calls* by starting the NIC DMA,
//    which then streams data with zero host involvement straight into the
//    user buffer.
//
// Consequence (the paper's central GM finding): between MPI calls nothing
// control-related advances — no application offload — but the data phase
// itself is fully offloaded to the NIC, so availability at peak bandwidth
// is ~1 when calls are frequent enough.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/units.hpp"
#include "host/cpu.hpp"
#include "net/fabric.hpp"
#include "nic/gm_nic.hpp"
#include "sim/shard_context.hpp"
#include "transport/endpoint.hpp"
#include "transport/reliability.hpp"
#include "transport/send_order.hpp"

namespace comb::transport {

struct GmConfig {
  Bytes eagerThreshold = 16 * 1024;
  /// Descriptor work per non-blocking post (send or receive).
  Time postOverhead = 5e-6;
  /// Host copy rate into NIC send buffers (eager sends).
  Rate eagerTxCopyRate = 280e6;
  /// Library copy rate from GM receive buffers to the user buffer.
  Rate eagerRxCopyRate = 400e6;
  /// Base CPU cost of one MPI library call.
  Time libCallCost = 0.7e-6;
  /// Cost to handle one NIC event (RTS/CTS/completion record).
  Time ctrlHandleCost = 1.0e-6;
  /// Wire payload of RTS/CTS control packets.
  Bytes ctrlBytes = 32;
  /// Ack/retransmit protocol parameters (engaged only on lossy fabrics).
  ReliabilityConfig rel;
};

/// GmEndpoint doubles as the shared *library protocol core*: the
/// progress-thread stack (transport/progress_thread.hpp) runs the
/// identical eager/rendezvous/retransmit state machine but executes the
/// event-handling side on a progress engine instead of inside the
/// application's MPI calls. The seam is chargeProgress(): every CPU
/// charge on the event-handling path goes through it, so a derived
/// stack can re-home that work onto another core (or the interrupt
/// path) without touching the protocol itself.
class GmEndpoint : public Endpoint {
 public:
  GmEndpoint(sim::ShardContext& sim, host::Cpu& cpu, net::Fabric& fabric,
             net::NodeId node, GmConfig cfg);

  sim::Task<void> postSend(TxReq req) override;
  sim::Task<void> postRecv(RxReq req) override;
  sim::Task<void> progress() override;
  sim::Task<bool> cancelRecv(std::uint64_t handle) override;
  bool applicationOffload() const override { return false; }
  Time libCallCost() const override { return cfg_.libCallCost; }
  net::NodeId nodeId() const override { return node_; }
  void deliver(net::Packet p) override { nic_.deliver(std::move(p)); }
  const nic::ReliableLink& link() const override { return nic_.link(); }

  nic::GmNic& nic() { return nic_; }
  const nic::GmNic& nic() const { return nic_; }
  const GmConfig& config() const { return cfg_; }

 protected:
  /// Rendezvous send awaiting CTS / DMA completion.
  struct PendingTx {
    TxReq req;
    bool ctsSeen = false;
  };

  sim::Task<void> handleEvent(nic::GmEvent ev);
  /// Matching logic for envelope-bearing messages (Eager, Rts), called in
  /// per-sender matchSeq order.
  sim::Task<void> handleMatchEvent(Arrival msg);
  /// Drain every pending NIC event through the protocol state machine.
  /// GM calls this from progress() (library context); the progress-thread
  /// stack calls it from its engine sessions.
  sim::Task<void> drainEvents();
  /// Charge `t` seconds of event-handling CPU. GM runs it on the app CPU
  /// (the library does the work inside an MPI call); derived stacks
  /// re-home it (dedicated core, or preemption of the app core).
  virtual sim::Task<void> chargeProgress(Time t);
  Time copyTimeAt(Rate rate, Bytes n) const {
    return static_cast<Time>(n) / rate;
  }

  sim::ShardContext& sim_;
  host::Cpu& cpu_;
  net::NodeId node_;
  GmConfig cfg_;
  nic::GmNic nic_;

  SendOrderGate<Arrival> order_;  // MPI non-overtaking across peers
  std::unordered_map<std::uint64_t, PendingTx> pendingTx_;  // by MPI handle
};

}  // namespace comb::transport
