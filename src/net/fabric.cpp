#include "net/fabric.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::net {

Fabric::Fabric(sim::ShardContext& sim, FabricConfig cfg)
    : sim_(sim), cfg_(cfg), topology_(sim, cfg.topo, cfg.sw, cfg.link) {
  COMB_REQUIRE(cfg.mtu > 0, "fabric MTU must be positive");
}

NodeId Fabric::addNode(DeliveryFn onDeliver) {
  COMB_REQUIRE(static_cast<bool>(onDeliver), "node needs a delivery sink");
  const NodeId id = static_cast<NodeId>(nodes_.size());
  NodePort port;
  port.up = std::make_unique<Link>(sim_, cfg_.link,
                                   strFormat("up%d", id));
  port.down = std::make_unique<Link>(sim_, cfg_.link,
                                     strFormat("down%d", id));
  port.deliver = std::move(onDeliver);
  port.ctx = &sim_;
  // The topology claims the switch-side ports (one input for the uplink,
  // one output for the downlink) and installs routes everywhere.
  const Topology::Attachment att = topology_.attachNode(id, *port.down);
  Switch* sw = att.sw;
  const int inputPort = att.inputPort;
  port.up->setSink([sw, inputPort](Packet p) {
    sw->inject(inputPort, std::move(p));
  });
  // The uplink feeds `sw`: under a sharded executor its arrivals target
  // the shard owning the egress port for each packet's destination.
  port.up->setNextHop(sw);
  Link* down = port.down.get();
  nodes_.push_back(std::move(port));
  // Index-based lookup: nodes_ may reallocate as more nodes are added.
  down->setSink([this, id](Packet p) {
    nodes_[static_cast<std::size_t>(id)].deliver(std::move(p));
  });
  return id;
}

void Fabric::inject(NodeId src, NodeId dst, Bytes payloadBytes,
                    PayloadPtr payload) {
  COMB_REQUIRE(src >= 0 && src < nodeCount(), "inject: bad src node");
  COMB_REQUIRE(dst >= 0 && dst < nodeCount(), "inject: bad dst node");
  COMB_REQUIRE(payloadBytes <= cfg_.mtu,
               strFormat("packet payload %llu exceeds MTU %llu",
                         static_cast<unsigned long long>(payloadBytes),
                         static_cast<unsigned long long>(cfg_.mtu)));
  NodePort& np = nodes_[static_cast<std::size_t>(src)];
  Packet p;
  p.src = src;
  p.dst = dst;
  p.wireBytes = payloadBytes + cfg_.perPacketHeader;
  p.seq = np.seq++;
  p.payload = std::move(payload);
  if (np.ctx->tracing())
    np.ctx->emitTrace(sim::TraceCategory::Packet, src,
                      strFormat("->n%d", dst),
                      static_cast<double>(p.wireBytes));
  np.up->send(std::move(p));
}

std::uint64_t Fabric::packetsInjected() const {
  std::uint64_t n = 0;
  for (const auto& port : nodes_) n += port.seq;
  return n;
}

void Fabric::bindShards(
    const std::function<sim::ShardContext*(NodeId)>& shardOf) {
  for (NodeId id = 0; id < nodeCount(); ++id) {
    NodePort& np = nodes_[static_cast<std::size_t>(id)];
    sim::ShardContext* ctx = shardOf(id);
    COMB_REQUIRE(ctx != nullptr, "bindShards: null shard for node");
    np.ctx = ctx;
    np.up->rehome(*ctx);
    np.down->rehome(*ctx);
  }
  topology_.bindShards(shardOf);
}

Time Fabric::minLinkLatency() const {
  return std::min(cfg_.link.latency, topology_.minTrunkLatency());
}

std::vector<Time> Fabric::shardLookaheadMatrix(int shardCount) const {
  const auto n = static_cast<std::size_t>(shardCount);
  std::vector<Time> direct(n * n, std::numeric_limits<Time>::infinity());
  const auto fold = [&](const Link& link) {
    const Switch* sw = link.nextHop();
    if (sw == nullptr) return;  // node-delivery link: arrivals stay local
    // Arrival = start + occupancy + latency, occupancy >= header/rate
    // (wire size includes the header), and jitter only delays — so this
    // lower-bounds the virtual-time distance of every post on the channel.
    const auto src = static_cast<std::size_t>(link.owner().shard());
    const Time bound =
        link.config().latency +
        static_cast<Time>(cfg_.perPacketHeader) / link.config().rate;
    for (int p = 0; p < sw->outputCount(); ++p) {
      const auto dst = static_cast<std::size_t>(sw->outputCtx(p)->shard());
      if (src == dst) continue;
      Time& entry = direct[src * n + dst];
      entry = std::min(entry, bound);
    }
  };
  for (const auto& np : nodes_) fold(*np.up);
  for (const auto& trunk : topology_.trunks()) fold(*trunk);
  return direct;
}

Link& Fabric::uplink(NodeId node) {
  COMB_REQUIRE(node >= 0 && node < nodeCount(), "uplink: bad node");
  return *nodes_[static_cast<std::size_t>(node)].up;
}

FaultCounters Fabric::linkFaultCounters() const {
  FaultCounters c;
  for (const auto& port : nodes_) {
    for (const Link* link : {port.up.get(), port.down.get()}) {
      c.dropsInjected += link->packetsDropped();
      c.corruptsInjected += link->packetsCorrupted();
    }
  }
  for (const auto& trunk : topology_.trunks()) {
    c.dropsInjected += trunk->packetsDropped();
    c.corruptsInjected += trunk->packetsCorrupted();
  }
  return c;
}

Link& Fabric::downlink(NodeId node) {
  COMB_REQUIRE(node >= 0 && node < nodeCount(), "downlink: bad node");
  return *nodes_[static_cast<std::size_t>(node)].down;
}

}  // namespace comb::net
