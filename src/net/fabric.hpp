// Fabric: assembles nodes, uplinks/downlinks and the switch fabric, and
// is the single injection/delivery interface NICs talk to. The switch
// graph itself (the paper's single star by default, or a multi-switch
// fat-tree / dragonfly for congestion studies) is built by net::Topology
// from cfg.topo.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/units.hpp"
#include "net/link.hpp"
#include "net/packet.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"
#include "sim/shard_context.hpp"

namespace comb::net {

struct FabricConfig {
  LinkConfig link;               ///< per-direction node<->switch links
  SwitchConfig sw;
  TopologyConfig topo;           ///< switch graph (default: single star)
  Bytes mtu = 4096;              ///< max payload bytes per packet
  Bytes perPacketHeader = 64;    ///< header overhead added to the wire size
};

class Fabric {
 public:
  using DeliveryFn = std::function<void(Packet)>;

  Fabric(sim::ShardContext& sim, FabricConfig cfg);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Add a node; `onDeliver` receives every packet addressed to it.
  /// Returns the new node's ID (dense, starting at 0).
  NodeId addNode(DeliveryFn onDeliver);

  /// Inject a packet from `p.src`'s uplink toward `p.dst`. Sets the wire
  /// size to payloadBytes + header. Returns nothing — arrival is an event
  /// at the destination's DeliveryFn.
  void inject(NodeId src, NodeId dst, Bytes payloadBytes, PayloadPtr payload);

  /// The uplink of `node` — NIC DMA engines query freeAt() for pacing.
  Link& uplink(NodeId node);
  Link& downlink(NodeId node);

  /// Assign every node (its uplink, downlink, injection/delivery events
  /// and packet-sequence counter) to a shard, and propagate the binding
  /// through the switch graph. Call once, after the last addNode and
  /// before the first inject. Serial executors never need this — every
  /// component already lives on the construction context.
  void bindShards(const std::function<sim::ShardContext*(NodeId)>& shardOf);

  /// Smallest latency of any link in the fabric — the upper bound for a
  /// sharded executor's conservative lookahead, because every cross-shard
  /// hand-off rides some link end to end.
  Time minLinkLatency() const;

  /// Per-shard-pair direct channel lookahead matrix (row-major
  /// shardCount x shardCount, +inf where no direct channel exists) for
  /// Executor::setLookaheadMatrix. Call after bindShards. Every
  /// cross-shard hand-off in this fabric is a link arrival targeting an
  /// egress-port shard of the link's next-hop switch, so the entry for
  /// (link owner, egress shard) is the link's latency plus the
  /// serialization time of the per-packet header — a lower bound on any
  /// packet's occupancy, since wire size >= header. Pairs with no fabric
  /// channel stay +inf: the executor's min-plus closure fills in
  /// multi-hop paths, and unreachable pairs never constrain each other.
  std::vector<Time> shardLookaheadMatrix(int shardCount) const;

  Bytes mtu() const { return cfg_.mtu; }
  Bytes perPacketHeader() const { return cfg_.perPacketHeader; }
  const FabricConfig& config() const { return cfg_; }
  int nodeCount() const { return static_cast<int>(nodes_.size()); }
  /// Max nodes this fabric can host; -1 = unbounded (lazy fat-tree).
  int capacityNodes() const { return topology_.capacityNodes(); }
  std::uint64_t packetsInjected() const;
  /// First switch of the fabric — THE switch for the default star; for
  /// multi-switch topologies prefer topology()/switchTotals().
  const Switch& centralSwitch() const { return topology_.switchAt(0); }
  const Topology& topology() const { return topology_; }
  /// Counters aggregated over every switch of the fabric.
  SwitchTotals switchTotals() const { return topology_.totals(); }

  /// True when the configured fault model — or a tail-dropping finite
  /// switch queue — can destroy packets; the NICs use this to decide
  /// whether to run their reliability protocol.
  bool lossy() const {
    return cfg_.link.fault.lossy() ||
           (cfg_.sw.queue.bounded() &&
            cfg_.sw.queue.backpressure == Backpressure::TailDrop);
  }
  /// Drop/corruption totals summed over every link of the fabric.
  FaultCounters linkFaultCounters() const;

 private:
  struct NodePort {
    std::unique_ptr<Link> up;    ///< node -> switch
    std::unique_ptr<Link> down;  ///< switch -> node
    DeliveryFn deliver;
    sim::ShardContext* ctx = nullptr;  ///< shard driving this node
    /// Per-node packet sequence (debug/tracing identity). Per-node, not
    /// fabric-global, so numbering is a pure function of each node's own
    /// injection history — identical across serial and sharded runs.
    std::uint64_t seq = 0;
  };

  sim::ShardContext& sim_;
  FabricConfig cfg_;
  Topology topology_;
  std::vector<NodePort> nodes_;
};

}  // namespace comb::net
