// Portals 3.0 (kernel-based) transport model.
//
// Mirrors the implementation the paper measured: a Linux kernel module
// processes Portals messages; the Myrinet MCP is a dumb packet engine; no
// OS-bypass. Properties:
//  * Posting a send or receive is a syscall plus kernel descriptor setup —
//    expensive (the paper's Fig 10 shows ~170 us posts vs GM's ~20 us).
//  * All matching and data movement happen in kernel/interrupt context,
//    so communication progresses with NO library calls: application
//    offload, the property the PWW method detects.
//  * Every fragment costs host CPU (interrupt + kernel-buffer copy), which
//    caps bandwidth well below the wire rate and crushes CPU availability
//    while messages flow (Figs 4, 12, 15).
//
// Unexpected messages are buffered in kernel memory; the late-posted
// receive pays the kernel->user copy in its posting syscall.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "host/cpu.hpp"
#include "net/fabric.hpp"
#include "nic/portals_nic.hpp"
#include "nic/reassembler.hpp"
#include "sim/shard_context.hpp"
#include "transport/endpoint.hpp"
#include "transport/reliability.hpp"
#include "transport/send_order.hpp"

namespace comb::transport {

struct PortalsConfig {
  /// User->kernel crossing per posted operation.
  Time postSyscall = 15e-6;
  /// Kernel match-entry / descriptor setup per posted operation. Together
  /// with postSyscall and the interrupt load a post suffers while traffic
  /// is flowing, this lands in the paper's Fig 10 range (~150-200 us).
  Time postKernel = 85e-6;
  /// Base CPU cost of one MPI library call (event-queue check).
  Time libCallCost = 1.2e-6;
  /// Kernel->user copy rate for unexpected messages claimed by a late
  /// receive (charged in the posting syscall).
  Rate unexpectedCopyRate = 250e6;
  nic::PortalsNicConfig nic;
  /// Ack/retransmit protocol parameters (engaged only on lossy fabrics).
  ReliabilityConfig rel;
};

class PortalsEndpoint final : public Endpoint {
 public:
  /// `libCpu` runs library/syscall work (the application's CPU);
  /// `kernelCpu` services NIC interrupts and kernel protocol work. On the
  /// paper's uniprocessor nodes they are the same CPU; the SMP extension
  /// (the paper's stated future work) steers them apart.
  PortalsEndpoint(sim::ShardContext& sim, host::Cpu& libCpu,
                  host::Cpu& kernelCpu, net::Fabric& fabric, net::NodeId node,
                  PortalsConfig cfg);

  sim::Task<void> postSend(TxReq req) override;
  sim::Task<void> postRecv(RxReq req) override;
  sim::Task<void> progress() override;
  sim::Task<bool> cancelRecv(std::uint64_t handle) override;
  bool applicationOffload() const override { return true; }
  Time libCallCost() const override { return cfg_.libCallCost; }
  net::NodeId nodeId() const override { return node_; }
  void deliver(net::Packet p) override { nic_.deliver(std::move(p)); }
  const nic::ReliableLink& link() const override { return nic_.link(); }

  nic::PortalsNic& nic() { return nic_; }
  const nic::PortalsNic& nic() const { return nic_; }
  const PortalsConfig& config() const { return cfg_; }

 private:
  /// Kernel receive path: runs at interrupt level per fragment.
  void kernelRx(const WirePayload& frag, net::NodeId src);
  /// Run the kernel match of the due message `m` and of each message from
  /// its sender that the gate releases after it, while the matches settle.
  void kernelMatchInOrder(nic::Reassembler::Entry& m);
  /// Try to claim a posted receive for an open message (kernel match
  /// entries); a complete message is then delivered or queued. True once
  /// the match is settled: claimed, or complete.
  bool kernelMatch(nic::Reassembler::Entry& m);
  /// Hand a complete message to its claim, or queue it unexpected.
  void kernelDeliver(net::NodeId src, std::uint64_t msgId);

  sim::ShardContext& sim_;
  host::Cpu& cpu_;
  net::NodeId node_;
  PortalsConfig cfg_;
  nic::PortalsNic nic_;

  nic::Reassembler rx_;  // kernel buffers
  /// Holds a message's msgId: the message waits in its rx_ entry.
  SendOrderGate<std::uint64_t> order_;
};

}  // namespace comb::transport
