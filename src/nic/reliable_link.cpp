#include "nic/reliable_link.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::nic {

using transport::WireKind;
using transport::WirePayload;

ReliableLink::ReliableLink(sim::ShardContext& sim, net::Fabric& fabric,
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

ReliableLink::Unacked* ReliableLink::find(std::uint64_t msgId) const {
  if (msgId < base_) return nullptr;
  const std::uint64_t i = front_ + (msgId - base_);
  return i < window_.size() ? window_[static_cast<std::size_t>(i)].get()
                            : nullptr;
}

void ReliableLink::track(net::NodeId dst, Bytes wireBytes, MessageMeta meta,
                         bool reportDone) {
  if (!enabled_) return;
  const std::uint64_t msgId = meta->msgId;
  if (window_.empty()) base_ = msgId;  // release() empties a drained window
  const std::uint64_t end = base_ + (window_.size() - front_);
  COMB_ASSERT(msgId >= end, "message ids must increase at every track()");
  window_.resize(static_cast<std::size_t>(front_ + (msgId - base_)));
  if (free_.empty()) free_.push_back(std::make_unique<Unacked>());
  window_.push_back(std::move(free_.back()));
  free_.pop_back();
  Unacked& u = *window_.back();
  u.dst = dst;
  u.wireBytes = wireBytes;
  u.acked.assign(meta->fragCount, false);
  u.ackedCount = 0;
  u.retries = 0;
  u.reportDone = reportDone;
  u.timeoutPending = false;
  u.timer = {};
  u.meta = std::move(meta);
}

void ReliableLink::release(std::uint64_t msgId) {
  auto& slot = window_[static_cast<std::size_t>(front_ + (msgId - base_))];
  slot->meta = {};  // hand the payload back to its pool now
  free_.push_back(std::move(slot));
  while (front_ < window_.size() && window_[front_] == nullptr) {
    ++front_;
    ++base_;
  }
  // Compact once the retired prefix is half the window: amortized O(1)
  // per message, and the window's capacity is reused.
  if (front_ * 2 >= window_.size()) {
    window_.erase(window_.begin(),
                  window_.begin() + static_cast<std::ptrdiff_t>(front_));
    front_ = 0;
  }
}

bool ReliableLink::arm(std::uint64_t msgId, Time base) {
  Unacked* u = find(msgId);
  if (u == nullptr) return false;
  Time rto = rel_.ackTimeout;
  for (int i = 0; i < u->retries; ++i) rto *= rel_.backoff;
  u->timer.cancel();
  u->timer = sim_.scheduleAt(base + rto, [this, msgId] { onTimer(msgId); });
  return true;
}

void ReliableLink::onTimer(std::uint64_t msgId) {
  timeouts_.add();
  Unacked* u = find(msgId);
  // Stale (fully acked meanwhile), or the hook still holds this message.
  if (u == nullptr || u->timeoutPending) return;
  u->timeoutPending = true;
  onTimeout_(msgId);
}

MessageMeta ReliableLink::onAck(const WirePayload& ack) {
  Unacked* u = find(ack.msgId);
  if (u == nullptr) return {};  // duplicate ack after completion
  if (ack.ackFragIndex >= u->acked.size() || u->acked[ack.ackFragIndex])
    return {};
  u->acked[ack.ackFragIndex] = true;
  if (++u->ackedCount < u->acked.size()) return {};
  u->timer.cancel();
  MessageMeta done;
  if (u->reportDone) done = std::move(u->meta);
  release(ack.msgId);
  return done;
}

void ReliableLink::checkBudget(std::uint64_t msgId, const Unacked& u) const {
  if (u.retries >= rel_.maxRetries)
    throw transport::RetryBudgetExhausted(strFormat(
        "%s: retransmit budget exhausted for message %llu after %d rounds",
        stack_, static_cast<unsigned long long>(msgId), u.retries));
}

std::optional<ReliableLink::RetransmitPlan> ReliableLink::plan(
    std::uint64_t msgId) const {
  const Unacked* found = find(msgId);
  if (found == nullptr) return std::nullopt;  // acked meanwhile: stale
  const Unacked& u = *found;
  checkBudget(msgId, u);
  RetransmitPlan p{u.meta->kind, 0};
  for (std::uint32_t i = 0; i < u.acked.size(); ++i)
    if (!u.acked[i]) p.missingBytes += fragBytes(u.wireBytes, i);
  return p;
}

const ReliableLink::Unacked& ReliableLink::beginRound(std::uint64_t msgId) {
  Unacked* found = find(msgId);
  COMB_ASSERT(found != nullptr, "retransmit of a fully-acked message");
  Unacked& u = *found;
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

std::uint64_t ReliableLink::seenBits(net::NodeId src,
                                     const WirePayload& frag) {
  const auto idx = static_cast<std::size_t>(src);
  if (idx >= rxSeen_.size()) rxSeen_.resize(idx + 1);
  std::vector<SeenMsg>& seen = rxSeen_[idx];
  auto at = seen.end();
  if (!seen.empty() && seen.back().msgId >= frag.msgId) {
    if (seen.back().msgId == frag.msgId) return seen.back().bitOffset;
    at = std::lower_bound(
        seen.begin(), seen.end(), frag.msgId,
        [](const SeenMsg& m, std::uint64_t id) { return m.msgId < id; });
    if (at->msgId == frag.msgId) return at->bitOffset;
  }
  const std::uint64_t offset = rxBitsUsed_;
  rxBitsUsed_ += frag.fragCount;
  rxBits_.resize(static_cast<std::size_t>((rxBitsUsed_ + 63) / 64), 0);
  seen.insert(at, SeenMsg{frag.msgId, offset});
  return offset;
}

bool ReliableLink::firstSighting(net::NodeId src, const WirePayload& frag,
                                 bool reackDuplicate) {
  COMB_ASSERT(frag.fragIndex < frag.fragCount, "fragment index out of range");
  const std::uint64_t bit = seenBits(src, frag) + frag.fragIndex;
  std::uint64_t& word = rxBits_[static_cast<std::size_t>(bit >> 6)];
  const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
  if ((word & mask) == 0) {
    word |= mask;
    return true;
  }
  if (reackDuplicate) sendAck(src, frag.msgId, frag.fragIndex);
  duplicates_.add();
  if (sim_.tracing())
    sim_.emitTrace(sim::TraceCategory::Fault, node_, dupLabel_,
                   static_cast<double>(frag.fragIndex));
  return false;
}

}  // namespace comb::nic
