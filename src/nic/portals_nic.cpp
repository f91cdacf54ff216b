#include "nic/portals_nic.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::nic {

using transport::WireKind;
using transport::WirePayload;

namespace {

metrics::Counter& nicCounter(sim::ShardContext& sim, net::NodeId node,
                             const char* metric) {
  return sim.metrics().counter(strFormat("nic.ptl.n%d.%s", node, metric));
}

}  // namespace

PortalsNic::PortalsNic(sim::ShardContext& sim, net::Fabric& fabric,
                       host::Cpu& cpu, net::NodeId node, PortalsNicConfig cfg,
                       transport::ReliabilityConfig rel)
    : sim_(sim), fabric_(fabric), cpu_(cpu), node_(node), cfg_(cfg),
      counters_{nicCounter(sim, node, "messages_sent"),
                nicCounter(sim, node, "frags_tx"),
                nicCounter(sim, node, "frags_rx")},
      // NIC-resident replay: the MCP re-injects the missing fragments from
      // its retained buffers — no interrupt, no kernel work, no host CPU.
      // This is the structural difference from GM, where a timeout must
      // wait for the library to poll.
      link_(sim, fabric, node, {"ptl", "Portals"}, rel,
            [this](std::uint64_t msgId) { link_.replay(msgId); }),
      txQueueWaitLatency_(sim.metrics().latency(
          strFormat("nic.ptl.n%d.tx_queue_wait", node))) {
  COMB_REQUIRE(cfg.kernelCopyRate > 0.0, "kernelCopyRate must be positive");
}

std::uint64_t PortalsNic::sendMessage(net::NodeId dst, WireKind kind,
                                      const mpi::Envelope& env,
                                      Bytes wireBytes, Bytes msgBytes,
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
  // Retained in NIC buffers for autonomous replay.
  link_.track(dst, wireBytes, meta, /*reportDone=*/true);
  for (std::uint32_t i = 0; i < meta->fragCount; ++i)
    txQueue_.push_back(TxFrag{meta, dst, i, wireBytes, sim_.now()});
  pumpTx();
  return msgId;
}

void PortalsNic::pumpTx() {
  if (txBusy_ || txQueue_.empty()) return;
  txBusy_ = true;
  TxFrag frag = std::move(txQueue_.front());
  txQueue_.pop_front();
  counters_.fragsTx.add();
  txQueueWaitLatency_.record(sim_.now() - frag.enqueuedAt);
  const Bytes fragBytes = link_.fragBytes(frag.wireBytes, frag.index);
  sim_.emitTrace(sim::TraceCategory::NicEvent, node_, "tx-frag",
                 static_cast<double>(fragBytes));
  const Time service =
      cfg_.perFragTx + static_cast<Time>(fragBytes) / cfg_.kernelCopyRate;
  cpu_.raiseInterrupt(service, [this, frag = std::move(frag)] {
    link_.injectFragment(frag.meta, frag.dst, frag.wireBytes, frag.index);
    if (frag.index + 1 == frag.meta->fragCount) {
      // A tracked message's completion belongs to the ack protocol:
      // txDone fires on full ack, and the retransmission clock starts
      // once the DMA has drained.
      const std::uint64_t msgId = frag.meta->msgId;
      if (!link_.arm(msgId, fabric_.uplink(node_).freeAt()) && txDone_)
        txDone_(*frag.meta);
    }
    txBusy_ = false;
    pumpTx();
  });
}

void PortalsNic::deliver(net::Packet p) {
  const auto* wp = net::payloadAs<WirePayload>(p);
  COMB_ASSERT(wp != nullptr, "Portals NIC received a non-wire packet");
  if (link_.enabled()) {
    if (wp->kind == WireKind::Ack) {
      // Acks terminate in the MCP — no interrupt, no kernel work.
      if (p.corrupted) return;
      if (const MessageMeta done = link_.onAck(*wp); done && txDone_)
        txDone_(*done);
      return;
    }
    if (p.corrupted) {
      // Reliability lives in the kernel here: even a fragment that fails
      // its checksum costs an interrupt before being thrown away.
      cpu_.raiseInterrupt(cfg_.perFragRx, [] {});
      return;
    }
    // A duplicate is recognised by the MCP and re-acked autonomously —
    // free.
    if (!link_.firstSighting(p.src, *wp, /*reackDuplicate=*/true)) return;
  }
  ++fragmentsReceived_;
  counters_.fragsRx.add();
  sim_.emitTrace(sim::TraceCategory::NicEvent, node_, "rx-frag",
                 static_cast<double>(p.wireBytes));
  // Service = interrupt + protocol + copy of this fragment through kernel
  // buffers. The transport's handler runs at the end of service, still at
  // interrupt level (matching happens in the kernel).
  const Bytes headerAdj =
      std::min<Bytes>(p.wireBytes, fabric_.perPacketHeader());
  const Bytes fragBytes = p.wireBytes - headerAdj;
  const Time service =
      cfg_.perFragRx + static_cast<Time>(fragBytes) / cfg_.kernelCopyRate;
  cpu_.raiseInterrupt(service, [this, payload = p.payload, src = p.src] {
    const auto* frag = net::payloadAs<WirePayload>(payload);
    COMB_ASSERT(frag != nullptr, "payload type changed in flight");
    if (link_.enabled()) {
      // The fragment is safely in kernel buffers: ack it now. Sent from
      // the MCP directly, so the ack itself costs no further host CPU.
      link_.sendAck(src, frag->msgId, frag->fragIndex);
    }
    if (rxHandler_) rxHandler_(*frag, src);
  });
}

}  // namespace comb::nic
