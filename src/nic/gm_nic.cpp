#include "nic/gm_nic.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::nic {

using transport::WireKind;
using transport::WirePayload;

namespace {

metrics::Counter& nicCounter(sim::ShardContext& sim, net::NodeId node,
                             const char* metric) {
  return sim.metrics().counter(strFormat("nic.gm.n%d.%s", node, metric));
}

}  // namespace

GmNic::GmNic(sim::ShardContext& sim, net::Fabric& fabric, net::NodeId node,
             transport::ReliabilityConfig rel)
    : sim_(sim), fabric_(fabric), node_(node),
      counters_{nicCounter(sim, node, "messages_sent"),
                nicCounter(sim, node, "messages_delivered"),
                nicCounter(sim, node, "frags_tx")},
      link_(sim, fabric, node, {"gm", "GM"}, rel,
            [this](std::uint64_t msgId) { onTimeout(msgId); }),
      eventWaitLatency_(sim.metrics().latency(
          strFormat("nic.gm.n%d.event_wait", node))) {}

std::uint64_t GmNic::sendMessage(net::NodeId dst, WireKind kind,
                                 const mpi::Envelope& env, Bytes wireBytes,
                                 Bytes msgBytes, transport::DataBuffer data,
                                 std::uint64_t senderHandle,
                                 std::uint64_t recvHandle,
                                 bool reportSendDone,
                                 std::uint64_t matchSeq) {
  const std::uint64_t msgId = nextMsgId_++;
  ++messagesSent_;
  counters_.sent.add();

  TxMsg msg;
  msg.dst = dst;
  msg.msgId = msgId;
  msg.wireBytes = wireBytes;
  msg.reportSendDone = reportSendDone;
  msg.control = kind == WireKind::Rts || kind == WireKind::Cts;
  msg.meta = link_.describe(kind, msgId, wireBytes, env, msgBytes,
                            std::move(data), senderHandle, recvHandle,
                            matchSeq);
  link_.track(dst, wireBytes, msg.meta, reportSendDone);

  (msg.control ? ctrlQ_ : dataQ_).push_back(std::move(msg));
  pumpTx();
  return msgId;
}

void GmNic::pumpTx() {
  if (txBusy_) return;
  std::deque<TxMsg>* q = nullptr;
  // Control packets have priority: they never wait behind a whole queued
  // data message, only (at most) behind the fragment currently going out.
  if (!ctrlQ_.empty()) q = &ctrlQ_;
  else if (!dataQ_.empty()) q = &dataQ_;
  if (!q) return;

  TxMsg& msg = q->front();
  counters_.fragsTx.add();
  // The outbound DMA window: the NIC streams this fragment from host
  // memory until the uplink finishes serializing it. Fragments serialize
  // one at a time (txBusy_), so the Begin/End pair cannot interleave.
  sim_.emitTraceBegin(sim::TraceCategory::NicEvent, node_, "dma",
                      static_cast<double>(msg.wireBytes));
  const std::uint32_t frag =
      msg.fragList.empty() ? msg.nextFrag : msg.fragList[msg.nextFrag];
  ++msg.nextFrag;
  link_.injectFragment(msg.meta, msg.dst, msg.wireBytes, frag);
  const std::uint32_t fragsToSend =
      msg.fragList.empty() ? msg.meta->fragCount
                           : static_cast<std::uint32_t>(msg.fragList.size());
  const Time dmaFree = fabric_.uplink(node_).freeAt();
  if (msg.nextFrag == fragsToSend) {
    // A tracked message's completion belongs to the ack protocol:
    // SendDone fires on full ack, and the retransmission clock starts
    // once the DMA has drained. Otherwise outbound DMA completes when the
    // last fragment has serialized.
    if (!link_.arm(msg.msgId, dmaFree) && msg.reportSendDone) {
      const std::uint64_t handle = msg.meta->senderHandle;
      sim_.scheduleAt(dmaFree, [this, handle] { pushSendDone(handle); });
    }
    q->pop_front();
  }
  // The next fragment (of this or another message) goes out when the
  // uplink finishes serializing this one.
  txBusy_ = true;
  sim_.scheduleAt(dmaFree, [this] {
    txBusy_ = false;
    sim_.emitTraceEnd(sim::TraceCategory::NicEvent, node_, "dma");
    pumpTx();
  });
}

void GmNic::onTimeout(std::uint64_t msgId) {
  // The NIC cannot retransmit on its own: queue a Timeout event and wait
  // for the library to poll it. The timer is re-armed only once the
  // retransmission actually goes out.
  GmEvent ev;
  ev.type = GmEvent::Type::Timeout;
  ev.msgId = msgId;
  pushEvent(std::move(ev));
}

void GmNic::executeRetransmit(std::uint64_t msgId) {
  const ReliableLink::Unacked& u = link_.beginRound(msgId);
  TxMsg msg;
  msg.dst = u.dst;
  msg.msgId = msgId;
  msg.meta = u.meta;
  msg.wireBytes = u.wireBytes;
  msg.control = u.meta->kind == WireKind::Rts || u.meta->kind == WireKind::Cts;
  for (std::uint32_t i = 0; i < u.acked.size(); ++i)
    if (!u.acked[i]) msg.fragList.push_back(i);
  link_.noteRetransmits(msg.fragList.size());
  (msg.control ? ctrlQ_ : dataQ_).push_back(std::move(msg));
  pumpTx();
}

void GmNic::sendAck(net::NodeId dst, std::uint64_t msgId,
                    std::uint32_t fragIndex) {
  // Firmware-level ack: a tiny untracked control packet, free for the
  // host (the MCP generates it while depositing the fragment).
  TxMsg msg;
  msg.dst = dst;
  msg.msgId = nextMsgId_++;
  msg.wireBytes = link_.config().ackBytes;
  msg.control = true;
  msg.meta = link_.ackPayload(msgId, fragIndex);
  ctrlQ_.push_back(std::move(msg));
  pumpTx();
}

void GmNic::deliver(net::Packet p) {
  const auto* wp = net::payloadAs<WirePayload>(p);
  COMB_ASSERT(wp != nullptr, "GM NIC received a non-wire packet");
  if (link_.enabled()) {
    if (wp->kind == WireKind::Ack) {
      // Acks are firmware-to-firmware and never acked themselves; a
      // corrupted ack is simply useless.
      if (p.corrupted) return;
      if (const MessageMeta done = link_.onAck(*wp))
        pushSendDone(done->senderHandle);
      return;
    }
    if (p.corrupted) return;  // failed checksum: silence forces retransmit
    // Ack every healthy fragment — including duplicates, whose original
    // ack may have been the packet that was lost.
    sendAck(p.src, wp->msgId, wp->fragIndex);
    if (!link_.firstSighting(p.src, *wp, /*reackDuplicate=*/false)) return;
  }
  // The MCP deposits each fragment by DMA; the library hears of the
  // message once its last fragment has landed.
  if (!rx_.add(p.src, *wp).complete()) return;
  ++messagesDelivered_;
  counters_.delivered.add();
  GmEvent ev;
  static_cast<transport::Arrival&>(ev) = rx_.take(p.src, wp->msgId).msg;
  pushEvent(std::move(ev));
}

std::optional<GmEvent> GmNic::pop() {
  if (events_.empty()) return std::nullopt;
  GmEvent ev = std::move(events_.front());
  events_.pop_front();
  eventWaitLatency_.record(sim_.now() - ev.queuedAt);
  return ev;
}

void GmNic::pushSendDone(std::uint64_t senderHandle) {
  GmEvent ev;
  ev.type = GmEvent::Type::SendDone;
  ev.senderHandle = senderHandle;
  pushEvent(std::move(ev));
}

void GmNic::pushEvent(GmEvent ev) {
  ev.queuedAt = sim_.now();
  if (sim_.tracing()) {
    const char* label = wireKindName(ev.kind);
    if (ev.type == GmEvent::Type::SendDone) label = "send-done";
    else if (ev.type == GmEvent::Type::Timeout) label = "timeout";
    sim_.emitTrace(sim::TraceCategory::NicEvent, node_, label,
                   static_cast<double>(ev.msgBytes));
  }
  events_.push_back(std::move(ev));
  if (eventHook_) eventHook_();
}

}  // namespace comb::nic
