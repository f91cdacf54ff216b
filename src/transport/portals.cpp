#include "transport/portals.hpp"

#include "common/error.hpp"

namespace comb::transport {

PortalsEndpoint::PortalsEndpoint(sim::ShardContext& sim, host::Cpu& libCpu,
                                 host::Cpu& kernelCpu, net::Fabric& fabric,
                                 net::NodeId node, PortalsConfig cfg)
    : sim_(sim),
      cpu_(libCpu),
      node_(node),
      cfg_(cfg),
      nic_(sim, fabric, kernelCpu, node, cfg.nic, cfg.rel) {
  initActivity(sim);
  nic_.setRxHandler(
      [this](const WirePayload& frag, net::NodeId src) { kernelRx(frag, src); });
  nic_.setTxDoneHandler([this](const WireFields& msg) {
    txDone_(msg.senderHandle);
    signalActivity();
  });
}

sim::Task<void> PortalsEndpoint::postSend(TxReq req) {
  const std::uint64_t seq = order_.stamp(req.dstNode);
  if (sim_.tracing())
    sim_.emitTrace(sim::TraceCategory::Protocol, node_, "kernel-send-post",
                   static_cast<double>(req.bytes));
  co_await cpu_.compute(cfg_.postSyscall + cfg_.postKernel);
  nic_.sendMessage(req.dstNode, WireKind::Eager, req.env, req.bytes, req.bytes,
                   req.data, req.handle, 0, seq);
  // From here the kernel owns the transfer: application offload.
}

void PortalsEndpoint::kernelRx(const WirePayload& frag, net::NodeId src) {
  nic::Reassembler::Entry& m = rx_.add(src, frag);
  if (frag.fragIndex == 0) {
    // Portals matches on the first fragment (kernel match entries), in
    // per-sender send order: a retransmitted fragment 0 can land after a
    // later message's.
    if (order_.admit(src, m.msg.matchSeq, frag.msgId)) kernelMatchInOrder(m);
  } else if (m.complete()) {
    if (m.claim) {
      kernelDeliver(src, frag.msgId);
    } else if (order_.due(src, m.msg.matchSeq)) {
      // A receive may have been posted while fragments were in flight;
      // the kernel re-checks before declaring the message unexpected. (A
      // message whose fragment-0 match is still held is re-checked when
      // the gate releases it.)
      kernelMatchInOrder(m);
    }
  }
}

void PortalsEndpoint::kernelMatchInOrder(nic::Reassembler::Entry& m) {
  // An unclaimed, incomplete message holds its successors back: a
  // receive posted before it completes must still go to it first. A
  // settled match may have taken its entry, so read the sender first.
  const net::NodeId src = m.msg.srcNode;
  if (!kernelMatch(m)) return;
  while (const auto next = order_.release(src))
    if (!kernelMatch(*rx_.find(src, *next))) return;
}

bool PortalsEndpoint::kernelMatch(nic::Reassembler::Entry& m) {
  if (!m.claim) {
    if (auto rec = match_.matchArrival(m.msg.env, m.msg.msgBytes))
      m.claim = rec->cookie;
  }
  if (m.complete()) {
    kernelDeliver(m.msg.srcNode, m.msg.msgId);
    return true;
  }
  return m.claim.has_value();
}

void PortalsEndpoint::kernelDeliver(net::NodeId src, std::uint64_t msgId) {
  const nic::Reassembler::Entry taken = rx_.take(src, msgId);
  const Arrival& msg = taken.msg;
  if (!taken.claim) {
    match_.addUnexpected(msg.env, msg.msgBytes, msg);
    signalActivity();
    return;
  }
  if (sim_.tracing())
    sim_.emitTrace(sim::TraceCategory::Protocol, node_, "kernel-match",
                   static_cast<double>(msg.msgBytes));
  completeRecv(*taken.claim, msg);
}

sim::Task<void> PortalsEndpoint::postRecv(RxReq req) {
  co_await cpu_.compute(cfg_.postSyscall + cfg_.postKernel);
  if (auto u = match_.matchUnexpected(req.pattern, req.maxBytes)) {
    // Claiming a kernel-buffered message pays the kernel->user copy here.
    co_await cpu_.compute(static_cast<Time>(u->bytes) /
                          cfg_.unexpectedCopyRate);
    completeRecv(req.handle, u->held);
    co_return;
  }
  match_.postRecv(req.pattern, req.maxBytes, req.handle);
}

sim::Task<void> PortalsEndpoint::progress() {
  // The kernel progresses communication on its own; a library call only
  // inspects completion state.
  sim::TraceScope span(sim_, sim::TraceCategory::Protocol, node_, "progress");
  co_await cpu_.compute(cfg_.libCallCost);
}

sim::Task<bool> PortalsEndpoint::cancelRecv(std::uint64_t handle) {
  // Unlinking a kernel match entry is a syscall.
  co_await cpu_.compute(cfg_.postSyscall);
  co_return match_.cancelRecv(handle);
}

}  // namespace comb::transport
