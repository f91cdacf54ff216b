// Multi-switch fabric topologies.
//
// The paper's experiments use a single 8-port Myrinet crossbar; real
// clusters at 64-1024 nodes do not. This layer builds the switch graph —
// the single star (default, byte-identical to the historical fabric), a
// two-level fat-tree (leaves + spines), or a dragonfly-ish group
// topology (all-to-all routers inside a group, one global link pair per
// group pair) — wires the inter-switch trunks, and installs static
// destination routes on every switch. Routing is deterministic (the
// spine/gateway for a destination is a pure function of its node id), so
// simulations stay bit-reproducible at any node count.
//
// Oversubscription is a first-class knob: trunk links run at
// `trunkRateScale` times the node link rate, so a fat-tree leaf with
// `nodesPerSwitch` nodes and `spines` uplinks has an oversubscription
// ratio of nodesPerSwitch / (spines * trunkRateScale).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "net/link.hpp"
#include "net/switch.hpp"

namespace comb::net {

enum class TopologyKind {
  SingleSwitch,  ///< the paper's star: every node on one crossbar
  FatTree,       ///< two levels: leaf switches up-linked to every spine
  Dragonfly,     ///< groups of routers; local all-to-all + global links
};

const char* topologyKindName(TopologyKind k);

struct TopologyConfig {
  TopologyKind kind = TopologyKind::SingleSwitch;
  /// Nodes attached per leaf switch / router (fat-tree, dragonfly).
  int nodesPerSwitch = 4;
  /// Fat-tree: number of spine switches (each leaf up-links to all).
  int spines = 2;
  /// Dragonfly: group count and routers per group.
  int groups = 2;
  int routersPerGroup = 2;
  /// Inter-switch trunk rate as a multiple of the node link rate.
  double trunkRateScale = 1.0;

  bool single() const { return kind == TopologyKind::SingleSwitch; }
  /// Worst-case edge oversubscription ratio (1.0 = non-blocking).
  double oversubscription() const;
};

/// Throws comb::ConfigError on inconsistent parameters (also checks that
/// `sw.ports` can accommodate the per-switch attachment count).
void validateTopology(const TopologyConfig& topo, const SwitchConfig& sw);

/// Aggregated counters over every switch of a fabric.
struct SwitchTotals {
  std::uint64_t packetsRouted = 0;
  std::uint64_t dropsNoRoute = 0;
  std::uint64_t dropsQueue = 0;
  std::uint64_t creditStalls = 0;
  std::uint64_t queuePeakPackets = 0;  ///< max over switches, not a sum

  bool operator==(const SwitchTotals&) const = default;
};

/// The switch graph of one fabric: owns the switches and the inter-switch
/// trunk links, installs routes, and hands Fabric the attachment points
/// for node uplinks/downlinks. Leaf switches are created lazily as nodes
/// are added; interior switches (spines, routers) are wired up front.
class Topology {
 public:
  struct Attachment {
    Switch* sw = nullptr;  ///< the switch this node hangs off
    int inputPort = -1;    ///< input-port id for the node's uplink
  };

  Topology(sim::ShardContext& sim, const TopologyConfig& topo,
           const SwitchConfig& sw, const LinkConfig& nodeLink);
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  /// Attach node `id` (ids must be dense, in order): claims the leaf
  /// input port for its uplink, attaches `downlink` as the leaf output,
  /// and installs routes to `id` on every switch. Returns where the
  /// node's uplink should inject.
  Attachment attachNode(NodeId id, Link& downlink);

  /// Max attachable nodes; -1 = unbounded (fat-tree with ports = 0).
  int capacityNodes() const;

  int switchCount() const { return static_cast<int>(switches_.size()); }
  Switch& switchAt(int i) { return *switches_.at(static_cast<std::size_t>(i)); }
  const Switch& switchAt(int i) const {
    return *switches_.at(static_cast<std::size_t>(i));
  }
  /// The trunk links between switches (empty for the single star).
  const std::vector<std::unique_ptr<Link>>& trunks() const { return trunks_; }

  /// Assign every switch output port (and every trunk link) to a shard,
  /// after all nodes are attached and before the first packet. Node
  /// egress ports go to the node's shard; a trunk (and its from-switch
  /// port) goes to the home shard of whichever endpoint switch hosts
  /// nodes (the from-side wins when both do) — home = the shard of the
  /// switch's first attached node. Any single-owner assignment is
  /// *correct* (every cross-shard hand-off rides a link whose latency
  /// bounds the executor's lookahead); this one just minimizes crossings
  /// for partitions aligned to the topology's node blocks.
  void bindShards(const std::function<sim::ShardContext*(NodeId)>& shardOf);

  /// Smallest trunk latency (infinity when there are no trunks) — an
  /// input to the executor's lookahead, alongside the node link latency.
  Time minTrunkLatency() const;

  SwitchTotals totals() const;

 private:
  Switch& makeSwitch(const std::string& name, int ports);
  /// Fat-tree: get-or-create leaf `l` with its spine trunks.
  Switch& fatTreeLeaf(int l);
  void addFatTreeRoutes(NodeId id, int leaf);
  void buildDragonfly();
  void addDragonflyRoutes(NodeId id, int router);
  Link& makeTrunk(const std::string& name);
  /// Wire a trunk from an output port of switch `from` into an input
  /// port of switch `to` (switches_ indices), recording it for
  /// bindShards. Returns the output-port id on `from`.
  int wireTrunk(int from, int to, Link& trunk);
  /// Dragonfly router (group g, local index r) -> switches_ index.
  int routerIndex(int group, int router) const {
    return group * topo_.routersPerGroup + router;
  }

  sim::ShardContext& sim_;
  TopologyConfig topo_;
  SwitchConfig swCfg_;
  LinkConfig trunkLink_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Link>> trunks_;

  // Fat-tree wiring records (indexed [leaf][spine] / [spine][leaf]):
  // output-port ids for the trunk in each direction.
  std::vector<std::vector<int>> leafUpPort_;    ///< on leaf l toward spine s
  std::vector<std::vector<int>> spineDownPort_; ///< on spine s toward leaf l
  std::vector<int> leafIndex_;                  ///< leaf l -> switches_ index

  // Dragonfly wiring records.
  std::vector<std::vector<int>> localPort_;   ///< [router][router] out-port
  std::vector<std::vector<int>> globalPort_;  ///< [group][group] out-port

  // Shard-binding records (consumed by bindShards).
  struct TrunkRec {
    int from = -1;       ///< switches_ index of the sending switch
    int to = -1;         ///< switches_ index of the receiving switch
    int outPort = -1;    ///< output-port id on `from`
    Link* link = nullptr;
  };
  struct NodeEgressRec {
    int sw = -1;         ///< switches_ index hosting the downlink
    NodeId node = -1;
    int outPort = -1;
  };
  std::vector<TrunkRec> trunkRecs_;
  std::vector<NodeEgressRec> nodeEgress_;
  std::vector<NodeId> firstNode_;  ///< per switch; -1 = hosts no nodes
  int attachedNodes_ = 0;
};

}  // namespace comb::net
