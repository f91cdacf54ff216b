#include "nic/reliable_link.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::nic {

using transport::WireKind;
using transport::WirePayload;

ReliableLink::ReliableLink(sim::Simulator& sim, net::Fabric& fabric,
                           net::NodeId node, Names names,
                           transport::ReliabilityConfig rel,
                           TimeoutHook onTimeout)
    : sim_(sim), fabric_(fabric), node_(node), stack_(names.stack),
      retransmitLabel_(strFormat("%s:retransmit", names.tag)),
      dupLabel_(strFormat("%s:dup", names.tag)), rel_(rel),
      enabled_(fabric.lossy()), onTimeout_(std::move(onTimeout)),
      retransmits_(sim.metrics().counter(
          strFormat("nic.%s.n%d.retransmits", names.tag, node))),
      timeouts_(sim.metrics().counter(
          strFormat("nic.%s.n%d.timeout_wakeups", names.tag, node))),
      duplicates_(sim.metrics().counter(
          strFormat("nic.%s.n%d.duplicates_filtered", names.tag, node))) {}

MessageMeta ReliableLink::describe(WireKind kind, std::uint64_t msgId,
                                   Bytes wireBytes, const mpi::Envelope& env,
                                   Bytes msgBytes, transport::DataBuffer data,
                                   std::uint64_t senderHandle,
                                   std::uint64_t recvHandle,
                                   std::uint64_t matchSeq) {
  const Bytes mtu = fabric_.mtu();
  auto meta = pool_.acquire();
  meta->kind = kind;
  meta->msgId = msgId;
  meta->fragCount = static_cast<std::uint32_t>(
      std::max<Bytes>(1, (wireBytes + mtu - 1) / mtu));
  meta->env = env;
  meta->msgBytes = msgBytes;
  meta->senderHandle = senderHandle;
  meta->recvHandle = recvHandle;
  meta->matchSeq = matchSeq;
  meta->data = std::move(data);
  return meta;
}

Bytes ReliableLink::fragBytes(Bytes wireBytes, std::uint32_t frag) const {
  const Bytes mtu = fabric_.mtu();
  return std::min(wireBytes - static_cast<Bytes>(frag) * mtu, mtu);
}

void ReliableLink::injectFragment(const MessageMeta& meta, net::NodeId dst,
                                  Bytes wireBytes, std::uint32_t frag) {
  auto wp = pool_.acquire(*meta);
  wp->fragIndex = frag;
  if (frag != 0) wp->data = nullptr;  // the whole buffer rides fragment 0
  fabric_.inject(node_, dst, fragBytes(wireBytes, frag), std::move(wp));
}

void ReliableLink::track(net::NodeId dst, Bytes wireBytes, MessageMeta meta,
                         bool reportDone) {
  if (!enabled_) return;
  const std::uint64_t msgId = meta->msgId;
  Unacked u;
  u.dst = dst;
  u.wireBytes = wireBytes;
  u.acked.assign(meta->fragCount, false);
  u.reportDone = reportDone;
  u.meta = std::move(meta);
  unacked_.emplace(msgId, std::move(u));
}

bool ReliableLink::arm(std::uint64_t msgId, Time base) {
  auto it = unacked_.find(msgId);
  if (it == unacked_.end()) return false;
  Time rto = rel_.ackTimeout;
  for (int i = 0; i < it->second.retries; ++i) rto *= rel_.backoff;
  it->second.timer.cancel();
  it->second.timer =
      sim_.scheduleAt(base + rto, [this, msgId] { onTimer(msgId); });
  return true;
}

void ReliableLink::onTimer(std::uint64_t msgId) {
  timeouts_.add();
  auto it = unacked_.find(msgId);
  // Stale (fully acked meanwhile), or the hook still holds this message.
  if (it == unacked_.end() || it->second.timeoutPending) return;
  it->second.timeoutPending = true;
  onTimeout_(msgId);
}

bool ReliableLink::onAck(const WirePayload& ack) {
  auto it = unacked_.find(ack.msgId);
  if (it == unacked_.end()) return false;  // duplicate ack after completion
  Unacked& u = it->second;
  if (ack.ackFragIndex >= u.acked.size() || u.acked[ack.ackFragIndex])
    return false;
  u.acked[ack.ackFragIndex] = true;
  if (++u.ackedCount < u.acked.size()) return false;
  u.timer.cancel();
  const bool report = u.reportDone;
  unacked_.erase(it);
  return report;
}

void ReliableLink::checkBudget(std::uint64_t msgId, const Unacked& u) const {
  if (u.retries >= rel_.maxRetries)
    throw comb::Error(strFormat(
        "%s: retransmit budget exhausted for message %llu after %d rounds",
        stack_, static_cast<unsigned long long>(msgId), u.retries));
}

std::optional<ReliableLink::RetransmitPlan> ReliableLink::plan(
    std::uint64_t msgId) const {
  auto it = unacked_.find(msgId);
  if (it == unacked_.end()) return std::nullopt;  // acked meanwhile: stale
  const Unacked& u = it->second;
  checkBudget(msgId, u);
  RetransmitPlan p{u.meta->kind, 0};
  for (std::uint32_t i = 0; i < u.acked.size(); ++i)
    if (!u.acked[i]) p.missingBytes += fragBytes(u.wireBytes, i);
  return p;
}

const ReliableLink::Unacked& ReliableLink::beginRound(std::uint64_t msgId) {
  auto it = unacked_.find(msgId);
  COMB_ASSERT(it != unacked_.end(), "retransmit of a fully-acked message");
  Unacked& u = it->second;
  checkBudget(msgId, u);
  ++u.retries;
  u.timeoutPending = false;
  return u;
}

void ReliableLink::noteRetransmits(std::uint64_t frags) {
  COMB_ASSERT(frags > 0, "retransmit with nothing missing");
  retransmits_.add(frags);
  if (sim_.tracing())
    sim_.emitTrace(sim::TraceCategory::Fault, node_, retransmitLabel_,
                   static_cast<double>(frags));
}

void ReliableLink::replay(std::uint64_t msgId) {
  const Unacked& u = beginRound(msgId);
  std::uint64_t frags = 0;
  for (std::uint32_t i = 0; i < u.acked.size(); ++i) {
    if (u.acked[i]) continue;
    injectFragment(u.meta, u.dst, u.wireBytes, i);
    ++frags;
  }
  noteRetransmits(frags);
  arm(msgId, fabric_.uplink(node_).freeAt());
}

MessageMeta ReliableLink::ackPayload(std::uint64_t msgId,
                                     std::uint32_t fragIndex) {
  auto wp = pool_.acquire();
  wp->kind = WireKind::Ack;
  wp->msgId = msgId;
  wp->ackFragIndex = fragIndex;
  return wp;
}

void ReliableLink::sendAck(net::NodeId dst, std::uint64_t msgId,
                           std::uint32_t fragIndex) {
  fabric_.inject(node_, dst, rel_.ackBytes, ackPayload(msgId, fragIndex));
}

bool ReliableLink::firstSighting(net::NodeId src, const WirePayload& frag,
                                 bool reackDuplicate) {
  if (rxSeen_[{src, frag.msgId}].insert(frag.fragIndex).second) return true;
  if (reackDuplicate) sendAck(src, frag.msgId, frag.fragIndex);
  duplicates_.add();
  if (sim_.tracing())
    sim_.emitTrace(sim::TraceCategory::Fault, node_, dupLabel_,
                   static_cast<double>(frag.fragIndex));
  return false;
}

}  // namespace comb::nic
