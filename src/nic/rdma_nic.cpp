#include "nic/rdma_nic.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::nic {

using transport::WireKind;
using transport::WirePayload;

namespace {

metrics::Counter& nicCounter(sim::ShardContext& sim, net::NodeId node,
                             const char* metric) {
  return sim.metrics().counter(strFormat("nic.rdma.n%d.%s", node, metric));
}

}  // namespace

RdmaNic::RdmaNic(sim::ShardContext& sim, net::Fabric& fabric, net::NodeId node,
                 RdmaNicConfig cfg, transport::ReliabilityConfig rel)
    : sim_(sim), fabric_(fabric), node_(node), cfg_(cfg),
      counters_{nicCounter(sim, node, "messages_sent"),
                nicCounter(sim, node, "frags_tx"),
                nicCounter(sim, node, "frags_rx")},
      // Hardware replay from retained NIC buffers — no host CPU at all.
      link_(sim, fabric, node, {"rdma", "RDMA"}, rel,
            [this](std::uint64_t msgId) { link_.replay(msgId); }),
      txQueueWaitLatency_(sim.metrics().latency(
          strFormat("nic.rdma.n%d.tx_queue_wait", node))) {
  COMB_REQUIRE(cfg.perFragTx >= 0.0, "perFragTx must be non-negative");
}

std::uint64_t RdmaNic::sendMessage(net::NodeId dst, WireKind kind,
                                   const mpi::Envelope& env, Bytes wireBytes,
                                   Bytes msgBytes,
                                   transport::DataBuffer data,
                                   std::uint64_t senderHandle,
                                   std::uint64_t recvHandle,
                                   std::uint64_t matchSeq) {
  const std::uint64_t msgId = nextMsgId_++;
  ++messagesSent_;
  counters_.sent.add();
  auto meta = link_.describe(kind, msgId, wireBytes, env, msgBytes,
                             std::move(data), senderHandle, recvHandle,
                             matchSeq);
  // Retained in NIC memory for autonomous replay.
  link_.track(dst, wireBytes, meta, /*reportDone=*/true);
  auto& q = (kind == WireKind::Rts || kind == WireKind::Cts) ? ctrlQueue_
                                                             : txQueue_;
  for (std::uint32_t i = 0; i < meta->fragCount; ++i)
    q.push_back(TxFrag{meta, dst, i, wireBytes, sim_.now()});
  pumpTx();
  return msgId;
}

void RdmaNic::pumpTx() {
  if (txBusy_) return;
  // Control fragments (RTS/CTS) preempt queued data between fragments so
  // the NIC-to-NIC rendezvous loop stays live while data streams.
  std::deque<TxFrag>* q = nullptr;
  if (!ctrlQueue_.empty()) q = &ctrlQueue_;
  else if (!txQueue_.empty()) q = &txQueue_;
  if (!q) return;
  txBusy_ = true;
  inFlight_ = std::move(q->front());
  q->pop_front();
  counters_.fragsTx.add();
  txQueueWaitLatency_.record(sim_.now() - inFlight_.enqueuedAt);
  sim_.emitTrace(
      sim::TraceCategory::NicEvent, node_, "tx-frag",
      static_cast<double>(link_.fragBytes(inFlight_.wireBytes,
                                          inFlight_.index)));
  // Descriptor engine, not host CPU: the fragment enters the wire after
  // the WQE-processing delay; the engine then stays busy until the uplink
  // has serialized it, so injection is paced at wire rate and a control
  // fragment waits at most one data fragment, never a whole message.
  sim_.schedule(cfg_.perFragTx, [this] {
    const TxFrag& frag = inFlight_;
    link_.injectFragment(frag.meta, frag.dst, frag.wireBytes, frag.index);
    if (frag.index + 1 == frag.meta->fragCount) {
      // A tracked message's completion belongs to the hardware ack
      // protocol: txDone fires on full ack; the retransmission clock
      // starts once the DMA drains.
      const std::uint64_t msgId = frag.meta->msgId;
      if (!link_.arm(msgId, fabric_.uplink(node_).freeAt()) && txDone_)
        txDone_(*frag.meta);
    }
    sim_.scheduleAt(fabric_.uplink(node_).freeAt(), [this] {
      txBusy_ = false;
      pumpTx();
    });
  });
}

void RdmaNic::deliver(net::Packet p) {
  const auto* wp = net::payloadAs<WirePayload>(p);
  COMB_ASSERT(wp != nullptr, "RDMA NIC received a non-wire packet");
  if (link_.enabled()) {
    if (wp->kind == WireKind::Ack) {
      // Acks terminate in hardware.
      if (p.corrupted) return;
      if (const MessageMeta done = link_.onAck(*wp); done && txDone_)
        txDone_(*done);
      return;
    }
    if (p.corrupted) {
      // Checksum failure is detected and dropped in the NIC pipeline —
      // unlike Portals there is no interrupt to pay; the sender's
      // timeout replays it.
      return;
    }
    // A duplicate is re-acked autonomously (the original ack may be lost).
    if (!link_.firstSighting(p.src, *wp, /*reackDuplicate=*/true)) return;
    // The fragment is safely in NIC/host memory: ack straight away.
    link_.sendAck(p.src, wp->msgId, wp->fragIndex);
  }
  ++fragmentsReceived_;
  counters_.fragsRx.add();
  sim_.emitTrace(sim::TraceCategory::NicEvent, node_, "rx-frag",
                 static_cast<double>(p.wireBytes));
  // Zero host cost: the transport's handler performs hardware matching
  // in NIC context right now.
  if (rxHandler_) rxHandler_(*wp, p.src);
}

}  // namespace comb::nic
