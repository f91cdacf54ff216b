// Point-to-point unidirectional link with finite bandwidth and latency.
//
// Transmission model (store-and-forward at the receiving end):
//   start    = max(earliest, time the link becomes free)
//   occupy   = wireBytes / rate            (serialization)
//   arrival  = start + occupy + latency    (propagation + receive)
// Packets queued while the link is busy serialize FIFO — this is what
// creates output contention and makes "all messages in flight drain in
// one poll interval" (the paper's bandwidth knee) a real phenomenon.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "sim/shard_context.hpp"

namespace comb::net {

class Switch;

struct LinkConfig {
  Rate rate = 132e6;     ///< bytes/second on the wire
  Time latency = 1e-6;   ///< propagation + receive fixed delay
  FaultSpec fault;       ///< loss/corruption/jitter model (inactive default)
};

class Link {
 public:
  using Sink = std::function<void(Packet)>;

  Link(sim::ShardContext& sim, LinkConfig cfg, std::string name);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Attach the receiver. Must be set before the first send.
  void setSink(Sink sink) { sink_ = std::move(sink); }

  /// Declare that this link feeds `sw` (its sink injects there). Under a
  /// sharded executor, send() then targets the arrival event at the
  /// shard owning the switch's egress port for the packet's destination
  /// — the link's latency is exactly what makes that hand-off satisfy
  /// the conservative-lookahead bound. Links that feed a node delivery
  /// (downlinks) leave this unset: their arrival is always owner-local.
  void setNextHop(Switch* sw) { nextHop_ = sw; }
  /// The switch this link feeds, or nullptr for node-delivery links.
  /// Fabric::shardLookaheadMatrix walks this to enumerate the fabric's
  /// cross-shard channels.
  Switch* nextHop() const { return nextHop_; }

  /// Move this link (clock, counters, fault stream, busy state) to a
  /// different shard. Called once, between fabric wiring and the first
  /// send, by Fabric::bindShards — counters re-register in the new
  /// shard's registry so every increment stays shard-local.
  void rehome(sim::ShardContext& ctx);

  /// The shard whose events drive send() on this link.
  sim::ShardContext& owner() const { return *sim_; }

  /// Enqueue a packet; returns its arrival time at the sink.
  Time send(Packet p) { return send(std::move(p), sim_->now()); }
  /// Enqueue a packet that may not start serializing before `earliest`
  /// (>= now). The idealized crossbar hands packets over at inject time
  /// with `earliest = now + routingLatency`, which is exact as long as
  /// every sender to this link uses the same constant delay: the link
  /// then sees the same packets in the same order as a delayed send().
  /// Fault records are stamped at `earliest`.
  Time send(Packet p, Time earliest);

  /// Absolute time the link becomes free for a new serialization.
  Time freeAt() const { return busyUntil_; }
  bool idleNow() const;

  // --- statistics --------------------------------------------------------
  Bytes bytesCarried() const { return bytesCarried_; }
  std::uint64_t packetsCarried() const { return packetsCarried_; }
  /// Total serialization time (the utilization numerator).
  Time busyTime() const { return busyTime_; }
  std::uint64_t packetsDropped() const { return packetsDropped_; }
  std::uint64_t packetsCorrupted() const { return packetsCorrupted_; }
  const std::string& name() const { return name_; }
  const LinkConfig& config() const { return cfg_; }

 private:
  void registerCounters();

  sim::ShardContext* sim_;
  LinkConfig cfg_;
  std::string name_;
  // Cached label strings / counters: built once at construction (and
  // once more on rehome) so the per-packet path performs no allocation
  // or name lookup.
  std::string dropLabel_;     ///< "<name>:drop"
  std::string corruptLabel_;  ///< "<name>:corrupt"
  metrics::Counter* packetsCounter_ = nullptr;
  metrics::Counter* bytesCounter_ = nullptr;
  metrics::Counter* dropsCounter_ = nullptr;
  metrics::Counter* corruptsCounter_ = nullptr;
  Switch* nextHop_ = nullptr;
  Sink sink_;
  Time busyUntil_ = 0.0;
  Bytes bytesCarried_ = 0;
  std::uint64_t packetsCarried_ = 0;
  Time busyTime_ = 0.0;

  // Fault injection (all untouched when cfg_.fault is inactive).
  Rng faultRng_;
  int burstRemaining_ = 0;   ///< packets left to discard in the loss event
  Time lastArrival_ = 0.0;   ///< jitter clamp: deliveries stay FIFO
  std::uint64_t packetsDropped_ = 0;
  std::uint64_t packetsCorrupted_ = 0;
};

}  // namespace comb::net
