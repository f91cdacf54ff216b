#include "transport/rdma.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::transport {

RdmaEndpoint::RdmaEndpoint(sim::ShardContext& sim, host::Cpu& cpu,
                           net::Fabric& fabric, net::NodeId node,
                           RdmaConfig cfg)
    : sim_(sim), cpu_(cpu), node_(node), cfg_(cfg),
      nic_(sim, fabric, node, cfg.nic, cfg.rel),
      fallbackCounter_(sim.metrics().counter(
          strFormat("rdma.n%d.unexpected_fallbacks", node))) {
  COMB_REQUIRE(cfg.eagerThreshold > 0, "eager threshold must be positive");
  COMB_REQUIRE(cfg.matchDelay >= 0.0, "matchDelay must be non-negative");
  COMB_REQUIRE(cfg.unexpectedCopyRate > 0.0,
               "unexpectedCopyRate must be positive");
  initActivity(sim);
  nic_.setRxHandler(
      [this](const WirePayload& frag, net::NodeId src) { hwRx(frag, src); });
  nic_.setTxDoneHandler([this](const WireFields& msg) {
    // An MPI send completes with its data: Eager, or rendezvous Data.
    // RTS/CTS control messages complete nothing.
    if (msg.kind != WireKind::Eager && msg.kind != WireKind::Data) return;
    txDone_(msg.senderHandle);
    signalActivity();
  });
}

sim::Task<void> RdmaEndpoint::postSend(TxReq req) {
  const bool eager = req.bytes <= cfg_.eagerThreshold;
  const std::uint64_t seq = order_.stamp(req.dstNode);
  if (sim_.tracing())
    sim_.emitTrace(sim::TraceCategory::Protocol, node_,
                   eager ? "rdma-eager-post" : "rdma-rndv-post",
                   static_cast<double>(req.bytes));
  // A post is a doorbell write plus WQE setup — no payload copy: the NIC
  // DMAs straight out of the registered user buffer.
  co_await cpu_.compute(cfg_.postOverhead);
  if (eager) {
    nic_.sendMessage(req.dstNode, WireKind::Eager, req.env, req.bytes,
                     req.bytes, req.data, req.handle, 0, seq);
    // Zero-copy: completion surfaces from NIC context once the DMA has
    // drained (or fully acked on a lossy fabric).
    co_return;
  }
  // Rendezvous: the RTS goes out; everything after — hardware match at
  // the receiver, CTS, data DMA — runs NIC-to-NIC with no host on
  // either side.
  const std::uint64_t handle = req.handle;
  const net::NodeId dst = req.dstNode;
  const mpi::Envelope env = req.env;
  const Bytes bytes = req.bytes;
  pendingTx_.emplace(handle, PendingTx{std::move(req)});
  nic_.sendMessage(dst, WireKind::Rts, env, cfg_.ctrlBytes, bytes, nullptr,
                   handle, 0, seq);
}

sim::Task<void> RdmaEndpoint::postRecv(RxReq req) {
  co_await cpu_.compute(cfg_.postOverhead);
  if (auto u = match_.matchUnexpected(req.pattern, req.maxBytes)) {
    const Arrival& msg = u->held;
    if (msg.kind == WireKind::Eager) {
      // The host-fallback price: claiming a bounce-buffered message
      // costs a host copy the expected path never pays.
      co_await cpu_.compute(static_cast<Time>(msg.msgBytes) /
                            cfg_.unexpectedCopyRate);
      completeRecv(req.handle, msg);
    } else {
      // Deferred rendezvous: the freshly-programmed match entry answers
      // the buffered RTS — the CTS leaves from the NIC, no extra host
      // work beyond the post itself.
      COMB_ASSERT(msg.kind == WireKind::Rts, "unexpected kind in queue");
      nic_.sendMessage(msg.srcNode, WireKind::Cts, msg.env, cfg_.ctrlBytes,
                       msg.msgBytes, nullptr, msg.senderHandle, req.handle);
    }
    co_return;
  }
  match_.postRecv(req.pattern, req.maxBytes, req.handle);
}

sim::Task<void> RdmaEndpoint::progress() {
  // Hardware progresses communication on its own; a library call only
  // polls the completion queue.
  sim::TraceScope span(sim_, sim::TraceCategory::Protocol, node_, "progress");
  co_await cpu_.compute(cfg_.libCallCost);
}

void RdmaEndpoint::hwRx(const WirePayload& frag, net::NodeId src) {
  if (rx_.add(src, frag).complete()) hwMessage(rx_.take(src, frag.msgId).msg);
}

void RdmaEndpoint::hwMatch(Arrival msg) {
  auto rec = match_.matchArrival(msg.env, msg.msgBytes);
  if (!rec) {
    // Miss: the NIC deposits into host bounce buffers; the late receive
    // pays the copy (eager) or sends the deferred CTS (rendezvous) when
    // it claims the message.
    ++unexpectedFallbacks_;
    fallbackCounter_.add();
    if (sim_.tracing())
      sim_.emitTrace(sim::TraceCategory::Protocol, node_, "rdma-unexpected",
                     static_cast<double>(msg.msgBytes));
    match_.addUnexpected(msg.env, msg.msgBytes, msg);
    signalActivity();
    return;
  }
  if (sim_.tracing())
    sim_.emitTrace(sim::TraceCategory::Protocol, node_, "hw-match",
                   static_cast<double>(msg.msgBytes));
  if (msg.kind == WireKind::Eager) {
    // The match unit resolves the envelope in silicon; completion
    // surfaces after its pipeline delay. No host CPU.
    sim_.schedule(cfg_.matchDelay,
                  [this, cookie = rec->cookie, srcRank = msg.env.srcRank,
                   tag = msg.env.tag, bytes = msg.msgBytes,
                   data = std::move(msg.data)] {
                    rxDone_(cookie, mpi::Status{srcRank, tag, bytes}, data);
                    signalActivity();
                  });
    return;
  }
  // Autonomous rendezvous: the receiving NIC answers CTS itself after the
  // match-unit delay.
  sim_.schedule(cfg_.matchDelay,
                [this, src = msg.srcNode, env = msg.env, bytes = msg.msgBytes,
                 senderHandle = msg.senderHandle, cookie = rec->cookie] {
                  nic_.sendMessage(src, WireKind::Cts, env, cfg_.ctrlBytes,
                                   bytes, nullptr, senderHandle, cookie);
                });
}

void RdmaEndpoint::hwMessage(Arrival done) {
  if (done.kind == WireKind::Eager || done.kind == WireKind::Rts) {
    // The control lane lets an RTS overtake an earlier eager message's
    // data: match envelopes in per-sender send order.
    const net::NodeId src = done.srcNode;
    const std::uint64_t seq = done.matchSeq;
    for (auto due = order_.admit(src, seq, std::move(done)); due;
         due = order_.release(src))
      hwMatch(std::move(*due));
    return;
  }
  if (done.kind == WireKind::Cts) {
    if (sim_.tracing())
      sim_.emitTrace(sim::TraceCategory::Protocol, node_, "cts->dma",
                     static_cast<double>(done.msgBytes));
    const auto it = pendingTx_.find(done.senderHandle);
    COMB_ASSERT(it != pendingTx_.end(), "CTS for unknown send");
    TxReq req = std::move(it->second.req);
    pendingTx_.erase(it);
    // The sending NIC starts the data DMA itself — no host involvement.
    nic_.sendMessage(req.dstNode, WireKind::Data, req.env, req.bytes,
                     req.bytes, req.data, done.senderHandle, done.recvHandle);
    return;
  }
  COMB_ASSERT(done.kind == WireKind::Data, "unhandled wire kind");
  // Data lands straight in the user buffer named by the CTS.
  completeRecv(done.recvHandle, done);
}

sim::Task<bool> RdmaEndpoint::cancelRecv(std::uint64_t handle) {
  // Tearing down a hardware match entry is another doorbell round-trip.
  co_await cpu_.compute(cfg_.postOverhead);
  co_return match_.cancelRecv(handle);
}

}  // namespace comb::transport
