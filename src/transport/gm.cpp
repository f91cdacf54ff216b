#include "transport/gm.hpp"

#include "common/error.hpp"

namespace comb::transport {

GmEndpoint::GmEndpoint(sim::ShardContext& sim, host::Cpu& cpu,
                       net::Fabric& fabric, net::NodeId node, GmConfig cfg)
    : sim_(sim), cpu_(cpu), node_(node), cfg_(cfg),
      nic_(sim, fabric, node, cfg.rel) {
  COMB_REQUIRE(cfg.eagerThreshold > 0, "eager threshold must be positive");
  initActivity(sim);
  nic_.setEventHook([this] { signalActivity(); });
}

sim::Task<void> GmEndpoint::postSend(TxReq req) {
  const std::uint64_t seq = order_.stamp(req.dstNode);
  if (sim_.tracing())
    sim_.emitTrace(sim::TraceCategory::Protocol, node_,
                   req.bytes <= cfg_.eagerThreshold ? "eager-post"
                                                    : "rndv-post",
                   static_cast<double>(req.bytes));
  if (req.bytes <= cfg_.eagerThreshold) {
    // Eager: the post itself copies the payload into NIC send buffers.
    co_await cpu_.compute(cfg_.postOverhead +
                          copyTimeAt(cfg_.eagerTxCopyRate, req.bytes));
    // On a lossy fabric the send buffer must stay pinned until every
    // fragment is acked, so completion is gated on the NIC's SendDone.
    const bool ackGated = nic_.link().enabled();
    nic_.sendMessage(req.dstNode, WireKind::Eager, req.env, req.bytes,
                     req.bytes, req.data, req.handle, 0,
                     /*reportSendDone=*/ackGated, seq);
    if (ackGated) co_return;
    // Buffer handed off: the MPI send is locally complete right away.
    txDone_(req.handle);
    signalActivity();
    co_return;
  }
  // Rendezvous: cheap descriptor post + an RTS on the wire. Everything
  // else happens inside later library calls.
  co_await cpu_.compute(cfg_.postOverhead);
  const std::uint64_t handle = req.handle;
  const net::NodeId dst = req.dstNode;
  const mpi::Envelope env = req.env;
  const Bytes bytes = req.bytes;
  pendingTx_.emplace(handle, PendingTx{std::move(req), false});
  nic_.sendMessage(dst, WireKind::Rts, env, cfg_.ctrlBytes, bytes, nullptr,
                   handle, 0, /*reportSendDone=*/false, seq);
}

sim::Task<void> GmEndpoint::postRecv(RxReq req) {
  co_await cpu_.compute(cfg_.postOverhead);
  if (auto u = match_.matchUnexpected(req.pattern, req.maxBytes)) {
    const Arrival& msg = u->held;
    if (msg.kind == WireKind::Eager) {
      // Copy out of the GM receive buffers, then complete.
      co_await cpu_.compute(copyTimeAt(cfg_.eagerRxCopyRate, msg.msgBytes));
      completeRecv(req.handle, msg);
    } else {
      // Unexpected RTS: answer with CTS naming our receive handle.
      COMB_ASSERT(msg.kind == WireKind::Rts, "unexpected kind in queue");
      co_await cpu_.compute(cfg_.ctrlHandleCost);
      nic_.sendMessage(msg.srcNode, WireKind::Cts, msg.env, cfg_.ctrlBytes,
                       msg.msgBytes, nullptr, msg.senderHandle, req.handle,
                       /*reportSendDone=*/false);
    }
    co_return;
  }
  match_.postRecv(req.pattern, req.maxBytes, req.handle);
}

sim::Task<void> GmEndpoint::progress() {
  // Span over the whole drain: library-driven progress is where GM spends
  // host cycles, and the trace shows it stretching under event backlog.
  sim::TraceScope span(sim_, sim::TraceCategory::Protocol, node_, "progress");
  co_await cpu_.compute(cfg_.libCallCost);
  // Drain the NIC event queue the way MPICH-GM's progress engine does:
  // everything pending is handled in one call.
  co_await drainEvents();
}

sim::Task<void> GmEndpoint::drainEvents() {
  while (auto ev = nic_.pop()) {
    co_await handleEvent(std::move(*ev));
  }
}

sim::Task<void> GmEndpoint::chargeProgress(Time t) {
  co_await cpu_.compute(t);
}

sim::Task<void> GmEndpoint::handleEvent(nic::GmEvent ev) {
  using EvType = nic::GmEvent::Type;
  if (ev.type == EvType::Timeout) {
    // The NIC cannot retransmit on its own — the library re-stages the
    // missing fragments here, on the host CPU. Eager payloads must be
    // re-copied into NIC send buffers; rendezvous data re-DMAs from the
    // (still pinned) user buffer for just the descriptor cost.
    // plan() checks the retry budget (throwing once it is spent) before
    // any CPU is charged.
    auto plan = nic_.link().plan(ev.msgId);
    if (!plan) co_return;  // fully acked while the event sat in the queue
    Time cost = cfg_.ctrlHandleCost;
    if (plan->kind == WireKind::Eager)
      cost += copyTimeAt(cfg_.eagerTxCopyRate, plan->missingBytes);
    co_await chargeProgress(cost);
    // Acks may have landed while we were re-staging.
    if (!nic_.link().plan(ev.msgId)) co_return;
    nic_.executeRetransmit(ev.msgId);
    co_return;
  }
  if (ev.type == EvType::SendDone) {
    co_await chargeProgress(cfg_.ctrlHandleCost);
    pendingTx_.erase(ev.senderHandle);
    txDone_(ev.senderHandle);
    signalActivity();
    co_return;
  }

  if (ev.kind == WireKind::Eager || ev.kind == WireKind::Rts) {
    // Envelope-bearing events must match in per-sender send order; the
    // NIC's control-priority lane can deliver an RTS ahead of an earlier
    // eager message's data, so re-sequence here (MPICH-style).
    const net::NodeId src = ev.srcNode;
    const std::uint64_t seq = ev.matchSeq;
    for (auto due = order_.admit(src, seq, std::move(ev)); due;
         due = order_.release(src))
      co_await handleMatchEvent(std::move(*due));
    co_return;
  }

  if (ev.kind == WireKind::Cts) {
    if (sim_.tracing())
      sim_.emitTrace(sim::TraceCategory::Protocol, node_, "cts->dma",
                     static_cast<double>(ev.msgBytes));
    co_await chargeProgress(cfg_.ctrlHandleCost);
    const auto it = pendingTx_.find(ev.senderHandle);
    COMB_ASSERT(it != pendingTx_.end(), "CTS for unknown send");
    PendingTx& tx = it->second;
    COMB_ASSERT(!tx.ctsSeen, "duplicate CTS");
    tx.ctsSeen = true;
    // Program the NIC: data streams autonomously into the receiver's
    // user buffer; a SendDone completion record will surface later.
    nic_.sendMessage(tx.req.dstNode, WireKind::Data, tx.req.env,
                     tx.req.bytes, tx.req.bytes, tx.req.data, ev.senderHandle,
                     ev.recvHandle, /*reportSendDone=*/true);
    co_return;
  }

  COMB_ASSERT(ev.kind == WireKind::Data, "unhandled wire kind");
  // Zero-copy arrival into the user buffer; the library only marks the
  // receive complete.
  co_await chargeProgress(cfg_.ctrlHandleCost);
  completeRecv(ev.recvHandle, ev);
}

sim::Task<void> GmEndpoint::handleMatchEvent(Arrival msg) {
  if (msg.kind == WireKind::Eager) {
    if (auto rec = match_.matchArrival(msg.env, msg.msgBytes)) {
      co_await chargeProgress(cfg_.ctrlHandleCost +
                              copyTimeAt(cfg_.eagerRxCopyRate, msg.msgBytes));
      completeRecv(rec->cookie, msg);
    } else {
      // Queue before yielding: a progress engine runs beside the
      // application, and a receive posted during the charge must see it.
      match_.addUnexpected(msg.env, msg.msgBytes, msg);
      co_await chargeProgress(cfg_.ctrlHandleCost);
    }
    co_return;
  }
  COMB_ASSERT(msg.kind == WireKind::Rts, "unexpected match-event kind");
  co_await chargeProgress(cfg_.ctrlHandleCost);
  if (auto rec = match_.matchArrival(msg.env, msg.msgBytes)) {
    nic_.sendMessage(msg.srcNode, WireKind::Cts, msg.env, cfg_.ctrlBytes,
                     msg.msgBytes, nullptr, msg.senderHandle, rec->cookie,
                     /*reportSendDone=*/false);
  } else {
    match_.addUnexpected(msg.env, msg.msgBytes, msg);
  }
}

sim::Task<bool> GmEndpoint::cancelRecv(std::uint64_t handle) {
  co_await cpu_.compute(cfg_.libCallCost);
  co_return match_.cancelRecv(handle);
}

}  // namespace comb::transport
