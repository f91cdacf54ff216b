#include "net/switch.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"

namespace comb::net {

const char* arbitrationName(Arbitration a) {
  switch (a) {
    case Arbitration::Fifo: return "fifo";
    case Arbitration::RoundRobin: return "rr";
  }
  return "?";
}

const char* backpressureName(Backpressure b) {
  switch (b) {
    case Backpressure::TailDrop: return "drop";
    case Backpressure::Credit: return "credit";
  }
  return "?";
}

Switch::Switch(sim::ShardContext& sim, SwitchConfig cfg, std::string name)
    : sim_(&sim),
      cfg_(cfg),
      name_(std::move(name)),
      qdropLabel_(name_ + ":qdrop") {
  COMB_REQUIRE(cfg.ports >= 0, "switch port budget must be >= 0");
  COMB_REQUIRE(cfg.routingLatency >= 0.0, "negative routing latency");
  COMB_REQUIRE(cfg.queue.depthPackets >= 0,
               "negative switch queue depth");
  dropsNoRouteCounter_ =
      &sim.metrics().counter("switch." + name_ + ".drops_no_route");
}

void Switch::registerPortMetrics(OutputPort& port) {
  // Switch-wide names, port-local references: in one registry all ports
  // resolve to the same instruments (the historical behaviour); across
  // shard registries the same-named counters merge after the run.
  auto& m = port.ctx->metrics();
  port.packetsCounter = &m.counter("switch." + name_ + ".packets");
  port.dropsQueueCounter = &m.counter("switch." + name_ + ".drops_queue");
  port.creditStallsCounter = &m.counter("switch." + name_ + ".credit_stalls");
  port.queuePeakCounter = &m.counter("switch." + name_ + ".queue_peak_pkts",
                                     metrics::MergeKind::Max);
  if (cfg_.queue.bounded()) {
    port.depthHistogram = &m.histogram(
        "switch." + name_ + ".queue_depth_pkts", 0.0,
        static_cast<double>(cfg_.queue.depthPackets) + 1.0,
        std::min<std::size_t>(
            16, static_cast<std::size_t>(cfg_.queue.depthPackets) + 1));
  }
}

int Switch::attachInput(const std::string& label) {
  COMB_REQUIRE(cfg_.ports == 0 || portsUsed() < cfg_.ports,
               strFormat("switch %s: out of ports attaching input '%s' "
                         "(%d of %d used; inputs and outputs both count)",
                         name_.c_str(), label.c_str(), portsUsed(),
                         cfg_.ports));
  return inputsAttached_++;
}

int Switch::attachOutput(Link& out) {
  COMB_REQUIRE(cfg_.ports == 0 || portsUsed() < cfg_.ports,
               strFormat("switch %s: out of ports attaching output '%s' "
                         "(%d of %d used; inputs and outputs both count)",
                         name_.c_str(), out.name().c_str(), portsUsed(),
                         cfg_.ports));
  auto port = std::make_unique<OutputPort>();
  port->owner = this;
  port->link = &out;
  port->ctx = sim_;
  registerPortMetrics(*port);
  outputs_.push_back(std::move(port));
  ++outputsAttached_;
  return static_cast<int>(outputs_.size()) - 1;
}

void Switch::bindOutputShard(int outputPort, sim::ShardContext& ctx) {
  COMB_REQUIRE(outputPort >= 0 &&
                   outputPort < static_cast<int>(outputs_.size()),
               strFormat("switch %s: bad output port %d", name_.c_str(),
                         outputPort));
  OutputPort& port = *outputs_[static_cast<std::size_t>(outputPort)];
  COMB_ASSERT(port.packetsRouted == 0 && port.queuedPackets == 0,
              "switch port rebound after carrying traffic");
  if (port.ctx == &ctx) return;
  port.ctx = &ctx;
  registerPortMetrics(port);
}

void Switch::setRoute(NodeId node, int outputPort) {
  COMB_REQUIRE(node >= 0, "setRoute: negative node id");
  COMB_REQUIRE(outputPort >= 0 &&
                   outputPort < static_cast<int>(outputs_.size()),
               strFormat("switch %s: bad output port %d", name_.c_str(),
                         outputPort));
  const auto idx = static_cast<std::size_t>(node);
  if (idx >= routes_.size()) routes_.resize(idx + 1, nullptr);
  COMB_REQUIRE(routes_[idx] == nullptr,
               strFormat("switch %s: node %d already routed", name_.c_str(),
                         node));
  routes_[idx] = outputs_[static_cast<std::size_t>(outputPort)].get();
}

int Switch::attachOutput(NodeId node, Link& downlink) {
  const int port = attachOutput(downlink);
  setRoute(node, port);
  return port;
}

void Switch::inject(int inputPort, Packet p) {
  OutputPort* out = nullptr;
  if (const auto idx = static_cast<std::size_t>(p.dst);
      p.dst >= 0 && idx < routes_.size()) {
    out = routes_[idx];
  }
  if (out == nullptr) {
    // A real switch would drop or flood; our fabrics are fully
    // provisioned, so this is a wiring bug — counted (and surfaced via
    // the metrics registry and MachineStats), not just logged. The
    // counter belongs to the construction shard; in a sharded run the
    // atomic carries the authoritative count (the run aborts on it
    // anyway) while the registry counter stays shard-local.
    const std::uint64_t prior =
        dropsNoRoute_.fetch_add(1, std::memory_order_relaxed);
    static_cast<void>(prior);
    dropsNoRouteCounter_->add();
    COMB_LOG(Error) << "switch " << name_ << ": no route to node " << p.dst;
    return;
  }
  // From here on we are on out->ctx: the upstream link resolved the
  // egress shard before scheduling this event (serial runs trivially
  // satisfy that — there is only one shard).
  ++out->packetsRouted;
  out->packetsCounter->add();
  if (!cfg_.queue.bounded()) {
    // Idealized crossbar: the link's serializer is the (infinite) queue.
    // Hand the packet over now, to start no earlier than the cut-through
    // delay — no routing event. Exact: only this port feeds the link and
    // every packet gets the same delay, so the link sees the same packets
    // in the same order and computes the same start and arrival.
    out->link->send(std::move(p), out->ctx->now() + cfg_.routingLatency);
    return;
  }
  // The ingress port rides in the packet's padding: the closure must fit
  // the inline event slot (48 bytes — OutputPort* + Packet exactly).
  p.switchInPort = static_cast<std::int16_t>(inputPort);
  out->ctx->schedule(cfg_.routingLatency, [out, p = std::move(p)]() mutable {
    const int in = p.switchInPort;
    out->owner->enqueue(*out, in, std::move(p));
  });
}

bool Switch::queueFull(const OutputPort& port, const Packet& p) const {
  const auto& q = cfg_.queue;
  if (port.queuedPackets >= q.depthPackets) return true;
  return q.depthBytes > 0 && port.queuedPackets > 0 &&
         port.queuedBytes + p.wireBytes > q.depthBytes;
}

void Switch::enqueue(OutputPort& port, int inputPort, Packet p) {
  if (queueFull(port, p)) {
    if (cfg_.queue.backpressure == Backpressure::TailDrop) {
      ++port.dropsQueue;
      port.dropsQueueCounter->add();
      if (port.ctx->tracing())
        port.ctx->emitTrace(sim::TraceCategory::Fault, p.dst, qdropLabel_,
                            static_cast<double>(p.wireBytes),
                            static_cast<double>(p.seq));
      return;
    }
    // Credit backpressure: the packet waits upstream (modelled as an
    // unbounded staging area feeding the same arbitration) until the
    // queue drains — lossless, but the stall is accounted.
    ++port.creditStalls;
    port.creditStallsCounter->add();
  }
  ++port.queuedPackets;
  port.queuedBytes += p.wireBytes;
  if (static_cast<std::uint64_t>(port.queuedPackets) > port.queuePeak) {
    port.queuePeak = static_cast<std::uint64_t>(port.queuedPackets);
    // raiseTo, not add: in one registry many ports share this counter,
    // and its value must be the max over their peaks — exactly the old
    // switch-wide running maximum.
    port.queuePeakCounter->raiseTo(port.queuePeak);
  }
  if (port.depthHistogram != nullptr)
    port.depthHistogram->add(static_cast<double>(port.queuedPackets));
  if (cfg_.queue.arbitration == Arbitration::RoundRobin) {
    const auto slot = static_cast<std::size_t>(std::max(inputPort, 0));
    if (slot >= port.perInput.size()) port.perInput.resize(slot + 1);
    port.perInput[slot].push_back(std::move(p));
  } else {
    port.fifo.push_back(std::move(p));
  }
  drain(port);
}

void Switch::drain(OutputPort& port) {
  if (port.draining || port.queuedPackets == 0) return;
  // Pick the next packet: round-robin across non-empty input queues, or
  // the head of the single FIFO.
  Packet p;
  if (cfg_.queue.arbitration == Arbitration::RoundRobin) {
    const std::size_t n = port.perInput.size();
    std::size_t chosen = n;
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = (port.rrNext + k) % n;
      if (!port.perInput[i].empty()) {
        chosen = i;
        break;
      }
    }
    COMB_ASSERT(chosen < n, "switch drain: occupancy/queue mismatch");
    p = std::move(port.perInput[chosen].front());
    port.perInput[chosen].pop_front();
    port.rrNext = (chosen + 1) % n;
  } else {
    p = std::move(port.fifo.front());
    port.fifo.pop_front();
  }
  --port.queuedPackets;
  port.queuedBytes -= std::min(port.queuedBytes, p.wireBytes);
  // Hand exactly one packet to the link; serve the next when the wire
  // frees (the packet's propagation continues independently).
  Link* link = port.link;
  link->send(std::move(p));
  port.draining = true;
  port.ctx->scheduleAt(link->freeAt(), [this, out = &port] {
    out->draining = false;
    drain(*out);
  });
}

std::uint64_t Switch::packetsRouted() const {
  std::uint64_t n = 0;
  for (const auto& port : outputs_) n += port->packetsRouted;
  return n;
}

std::uint64_t Switch::dropsQueue() const {
  std::uint64_t n = 0;
  for (const auto& port : outputs_) n += port->dropsQueue;
  return n;
}

std::uint64_t Switch::creditStalls() const {
  std::uint64_t n = 0;
  for (const auto& port : outputs_) n += port->creditStalls;
  return n;
}

std::uint64_t Switch::queuePeakPackets() const {
  std::uint64_t peak = 0;
  for (const auto& port : outputs_) peak = std::max(peak, port->queuePeak);
  return peak;
}

}  // namespace comb::net
