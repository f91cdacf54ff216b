// The reliability engine every NIC model owns: fragmentation, per-fragment
// acks, a backoff retransmission timer, the retry budget and receive-side
// dedup, with one record table for all three stacks.
//
// The stacks differ in *who drives progress* (transport/reliability.hpp),
// and under loss that comes down to one decision: what happens when an ack
// timer fires on a message with unacked fragments. That decision is the
// link's only per-stack hook, the TimeoutHook:
//  * GM queues a Timeout event; the library re-stages the missing
//    fragments during a later MPI call (plan(), then beginRound()).
//  * Portals and RDMA call replay(): the NIC re-injects the missing
//    fragments from the retained metadata and re-arms at once.
// Each NIC still decides *when* it emits acks (GM queues them behind its
// transmit scheduler, Portals acks after interrupt service, RDMA at once);
// the link only builds them and keeps the books.
//
// On a lossless fabric the link is disabled: track() keeps nothing, so no
// timer is ever scheduled and no ack is ever sent.
//
// The books are flat, so the per-fragment path allocates only when a
// table outgrows its largest size so far:
//  * Sender: a window of record pointers indexed by `msgId - base`.
//    Message ids are per-NIC and increase at every track(); ids the NIC
//    spends on untracked packets (GM's firmware acks) leave empty slots.
//    Fully acked records go back to a free list, and the window's front
//    advances past empty slots. Records never move, so the reference
//    beginRound() returns stays valid across later track() calls.
//  * Receiver: per source, a vector of {msgId, bit offset} sorted by
//    msgId, over one shared fragment-bit pool (fragCount bits per
//    message, taken at its first sighting). A new id is usually the
//    source's newest and appends; a late first sighting of an older id
//    is a binary-search insert. Entries are never dropped, so duplicates
//    arriving after delivery are still caught.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"
#include "net/fabric.hpp"
#include "sim/shard_context.hpp"
#include "transport/payload_pool.hpp"
#include "transport/reliability.hpp"
#include "transport/wire.hpp"

namespace comb::nic {

/// The retained description of one outbound message: the wire fields
/// fragment 0 carries. Every fragment, first send or replay, is a clone.
using MessageMeta = net::PayloadRef<transport::WirePayload>;

class ReliableLink {
 public:
  /// Runs when a tracked message's ack timer fires with fragments still
  /// unacked. A message reaches the hook at most once per round.
  using TimeoutHook = std::function<void(std::uint64_t msgId)>;

  /// `tag` prefixes the registry counters (`nic.<tag>.n<id>.retransmits`,
  /// `.timeout_wakeups`, `.duplicates_filtered`) and the Fault trace
  /// labels (`<tag>:retransmit`, `<tag>:dup`); `stack` names the stack in
  /// errors.
  struct Names {
    const char* tag;
    const char* stack;
  };

  /// Sender-side record, one per tracked message until its last ack.
  struct Unacked {
    net::NodeId dst = -1;
    Bytes wireBytes = 0;
    MessageMeta meta;
    std::vector<bool> acked;  ///< one entry per fragment
    std::uint32_t ackedCount = 0;
    int retries = 0;
    bool reportDone = false;
    /// The hook holds a timeout for this message; no new round yet.
    bool timeoutPending = false;
    sim::EventHandle timer;
  };

  struct RetransmitPlan {
    transport::WireKind kind;  ///< what the message is (cost attribution)
    Bytes missingBytes = 0;    ///< payload bytes of the unacked fragments
  };

  ReliableLink(sim::ShardContext& sim, net::Fabric& fabric, net::NodeId node,
               Names names, transport::ReliabilityConfig rel,
               TimeoutHook onTimeout);
  ReliableLink(const ReliableLink&) = delete;
  ReliableLink& operator=(const ReliableLink&) = delete;

  /// True when the fabric can lose packets and the ack protocol runs.
  bool enabled() const { return enabled_; }
  const transport::ReliabilityConfig& config() const { return rel_; }

  // --- fragmentation (every NIC, lossless or not) ------------------------
  /// Describe a new outbound message of `wireBytes` on the wire.
  MessageMeta describe(transport::WireKind kind, std::uint64_t msgId,
                       Bytes wireBytes, const mpi::Envelope& env,
                       Bytes msgBytes, transport::DataBuffer data,
                       std::uint64_t senderHandle, std::uint64_t recvHandle,
                       std::uint64_t matchSeq = 0);
  /// Payload bytes of fragment `frag` of a `wireBytes` message.
  Bytes fragBytes(Bytes wireBytes, std::uint32_t frag) const;
  /// Put fragment `frag` of `meta` on the wire to `dst`; the message's
  /// data buffer rides fragment 0 only.
  void injectFragment(const MessageMeta& meta, net::NodeId dst,
                      Bytes wireBytes, std::uint32_t frag);

  // --- sender ------------------------------------------------------------
  /// Track a message until every fragment is acked (no-op when disabled).
  /// With `reportDone`, onAck reports its completion.
  void track(net::NodeId dst, Bytes wireBytes, MessageMeta meta,
             bool reportDone);
  /// (Re)arm msgId's timer to fire at `base + ackTimeout·backoff^retries`.
  /// Returns false, arming nothing, when msgId is not tracked (lossless
  /// fabric, or fully acked already).
  bool arm(std::uint64_t msgId, Time base);
  /// Book an ack. Stale, duplicate and out-of-range acks are ignored.
  /// Hands back the message's metadata exactly once per message tracked
  /// with `reportDone`: when its last fragment is acked (null otherwise).
  MessageMeta onAck(const transport::WirePayload& ack);
  /// What a new round for msgId would resend, or nullopt when it was fully
  /// acked meanwhile (a stale timeout). Throws
  /// transport::RetryBudgetExhausted once the retry budget is spent.
  std::optional<RetransmitPlan> plan(std::uint64_t msgId) const;
  /// Open msgId's next retransmission round: charge the retry budget
  /// (throws RetryBudgetExhausted once spent) and hand the record back for
  /// the caller to resend its unacked fragments. The reference stays valid
  /// until msgId's last ack, however many messages are tracked meanwhile.
  const Unacked& beginRound(std::uint64_t msgId);
  /// Count `frags` resent fragments and trace them as `<tag>:retransmit`.
  void noteRetransmits(std::uint64_t frags);
  /// The NIC-resident timeout policy (Portals, RDMA): replay the unacked
  /// fragments straight from the retained metadata, then re-arm once the
  /// uplink has drained.
  void replay(std::uint64_t msgId);

  // --- receiver ----------------------------------------------------------
  /// The ack for fragment `fragIndex` of the sender's `msgId`.
  MessageMeta ackPayload(std::uint64_t msgId, std::uint32_t fragIndex);
  /// Inject that ack straight onto the wire (no transmit scheduler).
  void sendAck(net::NodeId dst, std::uint64_t msgId, std::uint32_t fragIndex);
  /// Receive-side dedup: true the first time `frag` arrives from `src`.
  /// Messages are remembered past delivery, so late duplicates are still
  /// caught. A duplicate is re-acked when `reackDuplicate` (its original
  /// ack may be the packet that was lost), then counted and traced as
  /// `<tag>:dup`.
  bool firstSighting(net::NodeId src, const transport::WirePayload& frag,
                     bool reackDuplicate);

  // --- counters ----------------------------------------------------------
  std::uint64_t retransmits() const { return retransmits_.value(); }
  std::uint64_t timeoutWakeups() const { return timeouts_.value(); }
  std::uint64_t duplicatesFiltered() const { return duplicates_.value(); }

 private:
  /// One receiver-side entry: where msgId's fragment bits start.
  struct SeenMsg {
    std::uint64_t msgId;
    std::uint64_t bitOffset;
  };

  void onTimer(std::uint64_t msgId);
  /// Throws transport::RetryBudgetExhausted once msgId has spent its retry
  /// budget.
  void checkBudget(std::uint64_t msgId, const Unacked& u) const;
  /// msgId's record, or nullptr when it is not tracked.
  Unacked* find(std::uint64_t msgId) const;
  /// Free msgId's record (its last ack landed) and retire the empty
  /// slots at the window's front.
  void release(std::uint64_t msgId);
  /// First bit of `frag`'s message in rxBits_, taken on first sighting.
  std::uint64_t seenBits(net::NodeId src, const transport::WirePayload& frag);

  sim::ShardContext& sim_;
  net::Fabric& fabric_;
  net::NodeId node_;
  const char* stack_;
  std::string retransmitLabel_;
  std::string dupLabel_;
  transport::ReliabilityConfig rel_;
  bool enabled_;
  TimeoutHook onTimeout_;
  metrics::Counter& retransmits_;
  metrics::Counter& timeouts_;
  metrics::Counter& duplicates_;
  /// Fragment payloads recycle through this free list (zero steady-state
  /// allocation on the transmit path).
  transport::WirePayloadPool pool_;
  /// Tracked messages: window_[front_ + (msgId - base_)], empty for an
  /// id that is untracked or fully acked.
  std::vector<std::unique_ptr<Unacked>> window_;
  std::size_t front_ = 0;
  std::uint64_t base_ = 0;
  /// Retired records, reused by track().
  std::vector<std::unique_ptr<Unacked>> free_;
  /// Messages seen per source node, sorted by msgId.
  std::vector<std::vector<SeenMsg>> rxSeen_;
  /// Fragment-seen bits of every message in rxSeen_.
  std::vector<std::uint64_t> rxBits_;
  std::uint64_t rxBitsUsed_ = 0;
};

}  // namespace comb::nic
