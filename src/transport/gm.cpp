#include "transport/gm.hpp"

#include "common/error.hpp"

namespace comb::transport {

GmEndpoint::GmEndpoint(sim::Simulator& sim, host::Cpu& cpu,
                       net::Fabric& fabric, net::NodeId node, GmConfig cfg)
    : sim_(sim), cpu_(cpu), node_(node), cfg_(cfg),
      nic_(sim, fabric, node, cfg.rel) {
  COMB_REQUIRE(cfg.eagerThreshold > 0, "eager threshold must be positive");
  initActivity(sim);
  nic_.setEventHook([this] { signalActivity(); });
}

sim::Task<void> GmEndpoint::postSend(TxReq req) {
  const std::uint64_t seq = txMatchSeq_[req.dstNode]++;
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
    const std::uint64_t msgId = nic_.sendMessage(
        req.dstNode, WireKind::Eager, req.env, req.bytes, req.bytes,
        req.data, req.handle, 0, /*reportSendDone=*/ackGated, seq);
    if (ackGated) {
      txByMsgId_[msgId] = req.handle;
      co_return;
    }
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
  if (auto u = match_.matchUnexpected(req.pattern)) {
    const auto it = unexpected_.find(u->xportHandle);
    COMB_ASSERT(it != unexpected_.end(), "stale unexpected record");
    UnexRec rec = std::move(it->second);
    unexpected_.erase(it);
    if (rec.kind == WireKind::Eager) {
      // Copy out of the GM receive buffers, then complete.
      co_await cpu_.compute(copyTimeAt(cfg_.eagerRxCopyRate, rec.bytes));
      rxDone_(req.handle,
              mpi::Status{rec.env.srcRank, rec.env.tag, rec.bytes}, rec.data);
      signalActivity();
    } else {
      // Unexpected RTS: answer with CTS naming our receive handle.
      COMB_ASSERT(rec.kind == WireKind::Rts, "unexpected kind in queue");
      co_await cpu_.compute(cfg_.ctrlHandleCost);
      nic_.sendMessage(rec.srcNode, WireKind::Cts, rec.env, cfg_.ctrlBytes,
                       rec.bytes, nullptr, rec.senderHandle, req.handle,
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
    const auto it = txByMsgId_.find(ev.msgId);
    COMB_ASSERT(it != txByMsgId_.end(), "SendDone for unknown message");
    const std::uint64_t handle = it->second;
    txByMsgId_.erase(it);
    pendingTx_.erase(handle);
    txDone_(handle);
    signalActivity();
    co_return;
  }

  if (ev.kind == WireKind::Eager || ev.kind == WireKind::Rts) {
    // Envelope-bearing events must match in per-sender send order; the
    // NIC's control-priority lane can deliver an RTS ahead of an earlier
    // eager message's data, so re-sequence here (MPICH-style).
    const net::NodeId src = ev.srcNode;
    std::uint64_t& expected = rxMatchSeq_[src];
    if (ev.matchSeq != expected) {
      COMB_ASSERT(ev.matchSeq > expected, "duplicate matching sequence");
      heldEvents_.emplace(std::pair{src, ev.matchSeq}, std::move(ev));
      co_return;
    }
    co_await handleMatchEvent(std::move(ev));
    ++expected;
    // Release any consecutively-sequenced held events.
    for (auto it = heldEvents_.find(std::pair{src, expected});
         it != heldEvents_.end();
         it = heldEvents_.find(std::pair{src, expected})) {
      nic::GmEvent held = std::move(it->second);
      heldEvents_.erase(it);
      co_await handleMatchEvent(std::move(held));
      ++expected;
    }
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
    const std::uint64_t msgId = nic_.sendMessage(
        tx.req.dstNode, WireKind::Data, tx.req.env, tx.req.bytes,
        tx.req.bytes, tx.req.data, ev.senderHandle, ev.recvHandle,
        /*reportSendDone=*/true);
    txByMsgId_[msgId] = ev.senderHandle;
    co_return;
  }

  COMB_ASSERT(ev.kind == WireKind::Data, "unhandled wire kind");
  // Zero-copy arrival into the user buffer; the library only marks the
  // receive complete.
  co_await chargeProgress(cfg_.ctrlHandleCost);
  rxDone_(ev.recvHandle,
          mpi::Status{ev.env.srcRank, ev.env.tag, ev.msgBytes}, ev.data);
  signalActivity();
}

sim::Task<void> GmEndpoint::handleMatchEvent(nic::GmEvent ev) {
  if (ev.kind == WireKind::Eager) {
    if (auto rec = match_.matchArrival(ev.env)) {
      COMB_ASSERT(ev.msgBytes <= rec->maxBytes,
                  "eager message exceeds posted receive buffer");
      co_await chargeProgress(cfg_.ctrlHandleCost +
                              copyTimeAt(cfg_.eagerRxCopyRate, ev.msgBytes));
      rxDone_(rec->cookie,
              mpi::Status{ev.env.srcRank, ev.env.tag, ev.msgBytes}, ev.data);
      signalActivity();
    } else {
      // Queue before yielding: a progress engine runs beside the
      // application, and a receive posted during the charge must see it.
      const std::uint64_t id = nextUnexId_++;
      unexpected_[id] = UnexRec{WireKind::Eager, ev.env, ev.msgBytes, ev.data,
                                ev.srcNode, ev.senderHandle};
      match_.addUnexpected(ev.env, ev.msgBytes, id);
      co_await chargeProgress(cfg_.ctrlHandleCost);
    }
    co_return;
  }
  COMB_ASSERT(ev.kind == WireKind::Rts, "unexpected match-event kind");
  co_await chargeProgress(cfg_.ctrlHandleCost);
  if (auto rec = match_.matchArrival(ev.env)) {
    COMB_ASSERT(ev.msgBytes <= rec->maxBytes,
                "rendezvous message exceeds posted receive buffer");
    nic_.sendMessage(ev.srcNode, WireKind::Cts, ev.env, cfg_.ctrlBytes,
                     ev.msgBytes, nullptr, ev.senderHandle, rec->cookie,
                     /*reportSendDone=*/false);
  } else {
    const std::uint64_t id = nextUnexId_++;
    unexpected_[id] = UnexRec{WireKind::Rts, ev.env, ev.msgBytes, nullptr,
                              ev.srcNode, ev.senderHandle};
    match_.addUnexpected(ev.env, ev.msgBytes, id);
  }
}

sim::Task<bool> GmEndpoint::cancelRecv(std::uint64_t handle) {
  co_await cpu_.compute(cfg_.libCallCost);
  co_return match_.cancelRecv(handle);
}

std::optional<mpi::Status> GmEndpoint::peekUnexpected(
    const mpi::Pattern& pattern) const {
  if (auto u = match_.peekUnexpected(pattern)) {
    return mpi::Status{u->env.srcRank, u->env.tag, u->bytes};
  }
  return std::nullopt;
}

}  // namespace comb::transport
