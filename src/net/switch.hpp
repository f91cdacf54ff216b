// Crossbar switch with explicit port accounting and (optionally) finite
// output queues.
//
// The idealized model (queue.depthPackets == 0, the default, and what the
// paper's single Myrinet switch uses) routes a packet to the output link
// for its destination after a fixed cut-through latency; output
// contention is then modelled by the output Link's own serialization
// queue, which is unbounded. That is a non-blocking, infinite-buffer
// crossbar — fine for 2-node experiments, wrong for congestion studies.
// inject() hands the packet to the output link at once, told not to start
// serializing before now + routingLatency (Link::send(p, earliest)), so a
// packet crossing a star costs 2 events (uplink arrival, downlink
// arrival) rather than 3. The link runs at inject time, so in a trace
// export a downlink's Wire and drop/corrupt records can sit earlier in
// file order than under a separate routing event; their timestamps, and
// every start, arrival and fault draw, are unchanged.
//
// With a finite queue configured, each output port owns a bounded
// store-and-forward queue. Contending inputs are arbitrated fairly
// (round-robin across input ports, or strict FIFO), and overflow is
// either tail-dropped (lossy; the transports' retransmission protocols
// engage, see Fabric::lossy) or absorbed by credit-style backpressure
// (lossless; the overflow waits upstream and is accounted as a stall).
//
// Port accounting is explicit and unidirectional: every attachInput
// (an uplink or trunk *into* the switch) and every attachOutput (a
// downlink or trunk *out of* the switch) consumes one port from the
// budget. A node therefore costs two ports — the paper's 8-port
// full-duplex Myrinet crossbar is `ports = 16` in this accounting.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/units.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/shard_context.hpp"

namespace comb::net {

/// How contending inputs share one output port.
enum class Arbitration {
  Fifo,        ///< single queue in arrival order (no fairness guarantee)
  RoundRobin,  ///< per-input queues served round-robin (fair share)
};

/// What happens when a finite output queue is full.
enum class Backpressure {
  TailDrop,  ///< excess packets are destroyed (lossy fabric)
  Credit,    ///< excess waits upstream for a credit (lossless, stalls)
};

const char* arbitrationName(Arbitration a);
const char* backpressureName(Backpressure b);

struct SwitchQueueConfig {
  /// Max packets buffered per output port; 0 = unbounded (the idealized
  /// crossbar — packets go straight to the output link's serializer).
  int depthPackets = 0;
  /// Max wire bytes buffered per output port; 0 = no byte cap. Only
  /// consulted when depthPackets > 0.
  Bytes depthBytes = 0;
  Arbitration arbitration = Arbitration::RoundRobin;
  Backpressure backpressure = Backpressure::TailDrop;

  bool bounded() const { return depthPackets > 0; }
};

struct SwitchConfig {
  Time routingLatency = 0.5e-6;  ///< per-packet routing/cut-through delay
  /// Unidirectional port budget (inputs + outputs). 0 = unlimited, used
  /// for interior switches whose radix the topology layer sizes exactly.
  int ports = 16;
  SwitchQueueConfig queue;
};

class Switch {
 public:
  Switch(sim::ShardContext& sim, SwitchConfig cfg, std::string name);
  Switch(const Switch&) = delete;
  Switch& operator=(const Switch&) = delete;

  /// Claim one input port (an uplink or inter-switch trunk feeding this
  /// switch). Returns the input-port id to pass to inject(); the label
  /// only appears in error messages.
  int attachInput(const std::string& label);

  /// Claim one output port driving `out`. Returns the output-port id for
  /// setRoute().
  int attachOutput(Link& out);

  /// Route packets destined to `node` through output port `outputPort`.
  /// Many destinations may share one output port (an inter-switch trunk).
  void setRoute(NodeId node, int outputPort);

  /// Convenience for star wiring: claim an output port for `downlink`
  /// and route `node` through it. Returns the output-port id (the
  /// topology layer records it to bind node-egress ports to the node's
  /// shard).
  int attachOutput(NodeId node, Link& downlink);

  /// Entry point for packets arriving on input port `inputPort` (as
  /// returned by attachInput). Under a sharded executor this runs on the
  /// shard owning the egress port for p.dst (the upstream link resolves
  /// it via egressCtx and targets the arrival event there), so all of a
  /// port's state — queue, counters, the output link — is touched by
  /// exactly one shard.
  void inject(int inputPort, Packet p);
  /// Legacy single-uplink entry point: arrives on input port 0.
  void inject(Packet p) { inject(0, std::move(p)); }

  /// The shard owning the egress port for `dst`; nullptr when no route
  /// exists (the caller then keeps the packet local and inject counts
  /// the drop). This is the per-packet resolver upstream links consult —
  /// routes_ and port owners are immutable once the fabric is bound, so
  /// concurrent lookups from many shards are safe.
  sim::ShardContext* egressCtx(NodeId dst) const {
    if (const auto idx = static_cast<std::size_t>(dst);
        dst >= 0 && idx < routes_.size() && routes_[idx] != nullptr) {
      return routes_[idx]->ctx;
    }
    return nullptr;
  }

  /// Assign output port `outputPort` to `ctx`: its queue drains there,
  /// its counters register in that shard's registry, and inject() for
  /// destinations routed through it runs there. Called by
  /// Topology::bindShards between wiring and the first packet.
  void bindOutputShard(int outputPort, sim::ShardContext& ctx);

  /// Shard owning output port `outputPort` (construction context until
  /// bindOutputShard). A link feeding this switch can target the arrival
  /// event at any of these shards, so they are exactly the destinations
  /// Fabric::shardLookaheadMatrix must cover for that link.
  sim::ShardContext* outputCtx(int outputPort) const {
    return outputs_[static_cast<std::size_t>(outputPort)]->ctx;
  }

  std::uint64_t packetsRouted() const;
  std::uint64_t dropsNoRoute() const {
    return dropsNoRoute_.load(std::memory_order_relaxed);
  }
  /// Packets destroyed by a full output queue (TailDrop only).
  std::uint64_t dropsQueue() const;
  /// Packets that had to wait for a credit (Credit backpressure only).
  std::uint64_t creditStalls() const;
  /// Highest per-output queue occupancy seen (packets).
  std::uint64_t queuePeakPackets() const;
  int portsUsed() const { return inputsAttached_ + outputsAttached_; }
  int inputCount() const { return inputsAttached_; }
  int outputCount() const { return outputsAttached_; }
  const std::string& name() const { return name_; }
  const SwitchConfig& config() const { return cfg_; }

 private:
  /// All mutable per-packet state is per-port (never shared between
  /// ports), because different ports of one switch can belong to
  /// different shards: a spine's down-trunk toward leaf A drains
  /// concurrently with its down-trunk toward leaf B. Counters follow the
  /// port: each port registers the switch-wide metric names in its own
  /// shard's registry — in a serial run every port therefore shares the
  /// single registry's counters (find-or-create), byte-identical to the
  /// historical switch-wide instruments; in a sharded run the per-shard
  /// values merge by name (Sum, or Max for the peak).
  struct OutputPort {
    Switch* owner = nullptr;  ///< back-pointer for deferred enqueue events
    Link* link = nullptr;
    sim::ShardContext* ctx = nullptr;  ///< owning shard (construction ctx
                                       ///< until bindOutputShard)
    // Fifo arbitration uses `fifo`; RoundRobin uses one queue per input
    // port (grown on demand) plus the rotating service pointer.
    std::deque<Packet> fifo;
    std::vector<std::deque<Packet>> perInput;
    std::size_t rrNext = 0;
    int queuedPackets = 0;
    Bytes queuedBytes = 0;
    bool draining = false;
    // Per-port statistics; switch-level accessors sum (or max) them.
    std::uint64_t packetsRouted = 0;
    std::uint64_t dropsQueue = 0;
    std::uint64_t creditStalls = 0;
    std::uint64_t queuePeak = 0;
    metrics::Counter* packetsCounter = nullptr;
    metrics::Counter* dropsQueueCounter = nullptr;
    metrics::Counter* creditStallsCounter = nullptr;
    metrics::Counter* queuePeakCounter = nullptr;
    /// Occupancy-at-enqueue histogram; only registered for bounded queues.
    Histogram* depthHistogram = nullptr;
  };

  void registerPortMetrics(OutputPort& port);
  void enqueue(OutputPort& port, int inputPort, Packet p);
  void drain(OutputPort& port);
  bool queueFull(const OutputPort& port, const Packet& p) const;

  sim::ShardContext* sim_;  ///< construction context (port default owner)
  SwitchConfig cfg_;
  std::string name_;
  std::string qdropLabel_;  ///< "<name>:qdrop" (trace label, cached)
  /// Destination -> output port, flat-indexed by NodeId (nullptr = no
  /// route). O(1) on the per-packet hot path; the old std::map cost
  /// O(log n) plus pointer chasing at 1024 nodes. Immutable once the
  /// fabric is wired — upstream shards read it concurrently (egressCtx).
  std::vector<OutputPort*> routes_;
  std::vector<std::unique_ptr<OutputPort>> outputs_;
  int inputsAttached_ = 0;
  int outputsAttached_ = 0;
  /// No-route drops are a wiring bug (SimCluster::run asserts zero) and
  /// can be observed from any injecting shard — atomic, not per-port,
  /// because a routeless packet has no port to charge.
  std::atomic<std::uint64_t> dropsNoRoute_{0};
  metrics::Counter* dropsNoRouteCounter_ = nullptr;
};

}  // namespace comb::net
