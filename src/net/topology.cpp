#include "net/topology.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::net {

const char* topologyKindName(TopologyKind k) {
  switch (k) {
    case TopologyKind::SingleSwitch: return "single";
    case TopologyKind::FatTree: return "fat-tree";
    case TopologyKind::Dragonfly: return "dragonfly";
  }
  return "?";
}

double TopologyConfig::oversubscription() const {
  switch (kind) {
    case TopologyKind::SingleSwitch:
      return 1.0;
    case TopologyKind::FatTree:
      // nodesPerSwitch uplink-demanding nodes share `spines` trunks.
      return static_cast<double>(nodesPerSwitch) /
             (static_cast<double>(spines) * trunkRateScale);
    case TopologyKind::Dragonfly:
      // Worst case: every node of one group targets one remote group —
      // all of it crosses a single global trunk.
      return static_cast<double>(nodesPerSwitch * routersPerGroup) /
             trunkRateScale;
  }
  return 1.0;
}

void validateTopology(const TopologyConfig& topo, const SwitchConfig& sw) {
  COMB_REQUIRE(topo.trunkRateScale > 0.0,
               "topology: trunk_rate_scale must be > 0");
  if (topo.single()) return;
  COMB_REQUIRE(topo.nodesPerSwitch > 0,
               "topology: nodes_per_switch must be > 0");
  if (topo.kind == TopologyKind::FatTree) {
    COMB_REQUIRE(topo.spines > 0, "fat-tree: spines must be > 0");
    // A leaf hosts nodesPerSwitch nodes (2 ports each) plus one trunk
    // pair per spine.
    const int radix = 2 * topo.nodesPerSwitch + 2 * topo.spines;
    COMB_REQUIRE(sw.ports == 0 || sw.ports >= radix,
                 strFormat("fat-tree leaf needs %d ports "
                           "(2*nodes_per_switch + 2*spines) but switch_ports "
                           "= %d",
                           radix, sw.ports));
  } else {
    COMB_REQUIRE(topo.groups > 0 && topo.routersPerGroup > 0,
                 "dragonfly: groups and routers_per_group must be > 0");
  }
}

Topology::Topology(sim::ShardContext& sim, const TopologyConfig& topo,
                   const SwitchConfig& sw, const LinkConfig& nodeLink)
    : sim_(sim), topo_(topo), swCfg_(sw), trunkLink_(nodeLink) {
  validateTopology(topo_, swCfg_);
  trunkLink_.rate = nodeLink.rate * topo_.trunkRateScale;
  switch (topo_.kind) {
    case TopologyKind::SingleSwitch:
      makeSwitch("switch0", swCfg_.ports);
      break;
    case TopologyKind::FatTree: {
      // Spines up front (leaves appear lazily as nodes attach); their
      // radix is sized exactly by the wiring below, so no budget.
      for (int s = 0; s < topo_.spines; ++s)
        makeSwitch(strFormat("spine%d", s), 0);
      spineDownPort_.resize(static_cast<std::size_t>(topo_.spines));
      break;
    }
    case TopologyKind::Dragonfly:
      buildDragonfly();
      break;
  }
}

Switch& Topology::makeSwitch(const std::string& name, int ports) {
  SwitchConfig cfg = swCfg_;
  cfg.ports = ports;
  switches_.push_back(std::make_unique<Switch>(sim_, cfg, name));
  firstNode_.push_back(-1);
  return *switches_.back();
}

Link& Topology::makeTrunk(const std::string& name) {
  trunks_.push_back(std::make_unique<Link>(sim_, trunkLink_, name));
  return *trunks_.back();
}

int Topology::wireTrunk(int from, int to, Link& trunk) {
  Switch& src = switchAt(from);
  Switch* dst = &switchAt(to);
  const int outPort = src.attachOutput(trunk);
  const int inPort = dst->attachInput(trunk.name());
  trunk.setSink(
      [dst, inPort](Packet p) { dst->inject(inPort, std::move(p)); });
  // The trunk feeds a switch: under a sharded executor its arrivals must
  // land on the shard owning the egress port for each packet (no-op for
  // serial runs).
  trunk.setNextHop(dst);
  trunkRecs_.push_back(TrunkRec{from, to, outPort, &trunk});
  return outPort;
}

Switch& Topology::fatTreeLeaf(int l) {
  if (l < static_cast<int>(leafIndex_.size()))
    return *switches_[static_cast<std::size_t>(leafIndex_[
        static_cast<std::size_t>(l)])];
  COMB_ASSERT(l == static_cast<int>(leafIndex_.size()),
              "fat-tree leaves must be created densely");
  Switch& leaf = makeSwitch(strFormat("leaf%d", l), swCfg_.ports);
  const int leafIdx = switchCount() - 1;
  leafIndex_.push_back(leafIdx);
  leafUpPort_.emplace_back(static_cast<std::size_t>(topo_.spines), -1);
  for (int s = 0; s < topo_.spines; ++s) {
    leafUpPort_.back()[static_cast<std::size_t>(s)] = wireTrunk(
        leafIdx, s, makeTrunk(strFormat("t.l%d.s%d", l, s)));
    spineDownPort_[static_cast<std::size_t>(s)].push_back(wireTrunk(
        s, leafIdx, makeTrunk(strFormat("t.s%d.l%d", s, l))));
  }
  // The new leaf needs uplink routes for every already-attached node
  // (each via that node's designated spine).
  for (NodeId id = 0; id < attachedNodes_; ++id) {
    const int home = static_cast<int>(id) / topo_.nodesPerSwitch;
    if (home == l) continue;
    const int spine = static_cast<int>(id) % topo_.spines;
    leaf.setRoute(id, leafUpPort_.back()[static_cast<std::size_t>(spine)]);
  }
  return leaf;
}

void Topology::addFatTreeRoutes(NodeId id, int leaf) {
  const int spineFor = static_cast<int>(id) % topo_.spines;
  // Every spine reaches `id` through its down-trunk to `leaf`; every
  // other leaf reaches it through its up-trunk to `id`'s spine.
  for (int s = 0; s < topo_.spines; ++s)
    switchAt(s).setRoute(
        id, spineDownPort_[static_cast<std::size_t>(s)][
                static_cast<std::size_t>(leaf)]);
  for (int l2 = 0; l2 < static_cast<int>(leafIndex_.size()); ++l2) {
    if (l2 == leaf) continue;
    fatTreeLeaf(l2).setRoute(
        id, leafUpPort_[static_cast<std::size_t>(l2)][
                static_cast<std::size_t>(spineFor)]);
  }
}

void Topology::buildDragonfly() {
  const int rpg = topo_.routersPerGroup;
  const int routers = topo_.groups * rpg;
  // All routers exist up front; their radix is sized exactly by the
  // wiring (nodes, local all-to-all, global trunks), so no budget.
  for (int g = 0; g < topo_.groups; ++g)
    for (int r = 0; r < rpg; ++r) makeSwitch(strFormat("r%d.%d", g, r), 0);
  localPort_.assign(static_cast<std::size_t>(routers),
                    std::vector<int>(static_cast<std::size_t>(routers), -1));
  // Local all-to-all inside each group.
  for (int g = 0; g < topo_.groups; ++g)
    for (int a = 0; a < rpg; ++a)
      for (int b = 0; b < rpg; ++b) {
        if (a == b) continue;
        const int ia = routerIndex(g, a), ib = routerIndex(g, b);
        localPort_[static_cast<std::size_t>(ia)][static_cast<std::size_t>(
            ib)] =
            wireTrunk(ia, ib,
                      makeTrunk(strFormat("t.r%d.%d.r%d.%d", g, a, g, b)));
      }
  // One global trunk per ordered group pair, owned by the gateway router
  // for that remote group (gateway for group gd is local index gd % rpg).
  globalPort_.assign(
      static_cast<std::size_t>(topo_.groups),
      std::vector<int>(static_cast<std::size_t>(topo_.groups), -1));
  for (int g = 0; g < topo_.groups; ++g)
    for (int gd = 0; gd < topo_.groups; ++gd) {
      if (g == gd) continue;
      const int src = routerIndex(g, gd % rpg);
      const int dst = routerIndex(gd, g % rpg);
      globalPort_[static_cast<std::size_t>(g)][static_cast<std::size_t>(
          gd)] =
          wireTrunk(src, dst, makeTrunk(strFormat("g.%d.%d", g, gd)));
    }
}

void Topology::addDragonflyRoutes(NodeId id, int router) {
  const int rpg = topo_.routersPerGroup;
  const int gd = router / rpg;
  const int gw = gd % rpg;  // gateway local index toward group gd
  for (int q = 0; q < switchCount(); ++q) {
    if (q == router) continue;  // direct downlink, set by attachNode
    const int g2 = q / rpg;
    const int r2 = q % rpg;
    int port;
    if (g2 == gd) {
      // Same group: one local hop to the destination router.
      port = localPort_[static_cast<std::size_t>(q)][
          static_cast<std::size_t>(router)];
    } else if (r2 == gw) {
      // Gateway router: take the global trunk to the home group.
      port = globalPort_[static_cast<std::size_t>(g2)][
          static_cast<std::size_t>(gd)];
    } else {
      // Hop locally to this group's gateway for gd.
      port = localPort_[static_cast<std::size_t>(q)][
          static_cast<std::size_t>(routerIndex(g2, gw))];
    }
    COMB_ASSERT(port >= 0, "dragonfly: missing trunk port");
    switchAt(q).setRoute(id, port);
  }
}

Topology::Attachment Topology::attachNode(NodeId id, Link& downlink) {
  COMB_REQUIRE(id == attachedNodes_, "nodes must attach densely, in order");
  const int cap = capacityNodes();
  COMB_REQUIRE(cap < 0 || static_cast<int>(id) < cap,
               strFormat("topology %s is full (%d nodes)",
                         topologyKindName(topo_.kind), cap));
  Attachment att;
  int swIdx = 0;
  switch (topo_.kind) {
    case TopologyKind::SingleSwitch:
      att.sw = &switchAt(0);
      break;
    case TopologyKind::FatTree: {
      const int leaf = static_cast<int>(id) / topo_.nodesPerSwitch;
      att.sw = &fatTreeLeaf(leaf);
      swIdx = leafIndex_[static_cast<std::size_t>(leaf)];
      break;
    }
    case TopologyKind::Dragonfly:
      swIdx = static_cast<int>(id) / topo_.nodesPerSwitch;
      att.sw = &switchAt(swIdx);
      break;
  }
  att.inputPort = att.sw->attachInput(strFormat("up%d", id));
  const int egressPort = att.sw->attachOutput(id, downlink);
  nodeEgress_.push_back(NodeEgressRec{swIdx, id, egressPort});
  if (firstNode_[static_cast<std::size_t>(swIdx)] < 0)
    firstNode_[static_cast<std::size_t>(swIdx)] = id;
  switch (topo_.kind) {
    case TopologyKind::SingleSwitch:
      break;
    case TopologyKind::FatTree:
      addFatTreeRoutes(id, static_cast<int>(id) / topo_.nodesPerSwitch);
      break;
    case TopologyKind::Dragonfly:
      addDragonflyRoutes(id, static_cast<int>(id) / topo_.nodesPerSwitch);
      break;
  }
  ++attachedNodes_;
  return att;
}

int Topology::capacityNodes() const {
  switch (topo_.kind) {
    case TopologyKind::SingleSwitch:
      return swCfg_.ports == 0 ? -1 : swCfg_.ports / 2;
    case TopologyKind::FatTree:
      return -1;  // leaves are created on demand
    case TopologyKind::Dragonfly:
      return topo_.groups * topo_.routersPerGroup * topo_.nodesPerSwitch;
  }
  return -1;
}

void Topology::bindShards(
    const std::function<sim::ShardContext*(NodeId)>& shardOf) {
  // Node egress ports drain into the node's delivery path — they (and
  // the packets queued on them) belong to the node's shard.
  for (const NodeEgressRec& e : nodeEgress_)
    switchAt(e.sw).bindOutputShard(e.outPort, *shardOf(e.node));
  // A trunk's send() runs on whatever shard drains its from-port, so the
  // port and the link must share one owner. Anchor it to a node hosted
  // by the from-switch (a spine hosts none — fall back to the to-side;
  // every lazily-created leaf/router hosts at least one node).
  for (const TrunkRec& t : trunkRecs_) {
    NodeId anchor = firstNode_[static_cast<std::size_t>(t.from)];
    if (anchor < 0) anchor = firstNode_[static_cast<std::size_t>(t.to)];
    COMB_ASSERT(anchor >= 0, "trunk between switches hosting no nodes");
    sim::ShardContext* ctx = shardOf(anchor);
    COMB_ASSERT(ctx != nullptr, "bindShards: null shard for node");
    switchAt(t.from).bindOutputShard(t.outPort, *ctx);
    t.link->rehome(*ctx);
  }
}

Time Topology::minTrunkLatency() const {
  if (trunks_.empty()) return std::numeric_limits<Time>::infinity();
  return trunkLink_.latency;
}

SwitchTotals Topology::totals() const {
  SwitchTotals t;
  for (const auto& sw : switches_) {
    t.packetsRouted += sw->packetsRouted();
    t.dropsNoRoute += sw->dropsNoRoute();
    t.dropsQueue += sw->dropsQueue();
    t.creditStalls += sw->creditStalls();
    t.queuePeakPackets = std::max(t.queuePeakPackets, sw->queuePeakPackets());
  }
  return t;
}

}  // namespace comb::net
