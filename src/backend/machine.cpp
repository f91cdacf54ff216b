#include "backend/machine.hpp"

#include <sstream>

#include "backend/stacks.hpp"
#include "common/string_util.hpp"

namespace comb::backend {

using namespace comb::units;

namespace {

net::FabricConfig paperFabric() {
  net::FabricConfig f;
  // Sustained node<->switch DMA rate. The LANai 7 link is 160 MB/s but the
  // 32-bit/33 MHz PCI bus and GM framing hold sustained transfers near
  // 90 MB/s, which is what puts MPICH/GM's plateau at the paper's ~88 MB/s.
  f.link.rate = 90e6;
  f.link.latency = 2.0_us;      // wire + NIC receive processing
  f.sw.routingLatency = 0.5_us; // Myrinet cut-through
  // The paper's 8-port Myrinet crossbar is full-duplex; the port budget
  // is unidirectional (a node's uplink and downlink each take one), so
  // 8 duplex ports = 16 — hosting up to 8 nodes, as on the real switch.
  f.sw.ports = 16;
  f.mtu = 4096;                 // GM fragment size
  f.perPacketHeader = 64;
  return f;
}

/// The paper's substrate under one stack with the stack's defaults.
MachineConfig paperMachine(const char* name, TransportKind kind) {
  MachineConfig m;
  m.name = name;
  m.kind = kind;
  m.fabric = paperFabric();
  return m;
}

}  // namespace

std::string machineSignature(const MachineConfig& m) {
  // %.17g round-trips doubles exactly, so the signature (and its hash)
  // changes iff some model parameter changes.
  std::ostringstream os;
  const auto field = [&os](const char* key, double v) {
    os << key << '=' << strFormat("%.17g", v) << '\n';
  };
  os << "name=" << m.name << '\n';
  os << "transport=" << transportKindName(m.kind) << '\n';
  field("seconds_per_work_iter", m.secondsPerWorkIter);
  os << "cpus_per_node=" << m.cpusPerNode << '\n';
  os << "nic_cpu=" << m.nicCpu << '\n';

  const auto& f = m.fabric;
  field("fabric.link_rate", f.link.rate);
  field("fabric.link_latency", f.link.latency);
  field("fabric.switch_latency", f.sw.routingLatency);
  os << "fabric.switch_ports=" << f.sw.ports << '\n';
  os << "fabric.mtu=" << f.mtu << '\n';
  os << "fabric.packet_header=" << f.perPacketHeader << '\n';
  os << "topo.kind=" << net::topologyKindName(f.topo.kind) << '\n';
  os << "topo.nodes_per_switch=" << f.topo.nodesPerSwitch << '\n';
  os << "topo.spines=" << f.topo.spines << '\n';
  os << "topo.groups=" << f.topo.groups << '\n';
  os << "topo.routers_per_group=" << f.topo.routersPerGroup << '\n';
  field("topo.trunk_rate_scale", f.topo.trunkRateScale);
  os << "queue.depth_packets=" << f.sw.queue.depthPackets << '\n';
  os << "queue.depth_bytes=" << f.sw.queue.depthBytes << '\n';
  os << "queue.arbitration=" << net::arbitrationName(f.sw.queue.arbitration)
     << '\n';
  os << "queue.backpressure="
     << net::backpressureName(f.sw.queue.backpressure) << '\n';
  field("fault.drop", f.link.fault.dropProb);
  os << "fault.burst=" << f.link.fault.burstLen << '\n';
  field("fault.corrupt", f.link.fault.corruptProb);
  field("fault.jitter", f.link.fault.jitter);
  os << "fault.seed=" << f.link.fault.seed << '\n';

  // Noise fields enter the signature only when the injector does
  // anything, so every historical (noise-free) machine keeps its hash.
  if (m.noise.active()) {
    field("noise.period", m.noise.period);
    field("noise.duration", m.noise.duration);
    field("noise.jitter", m.noise.jitter);
    os << "noise.daemons=" << m.noise.daemons << '\n';
    field("noise.coalesce", m.noise.coalesce);
    os << "noise.seed=" << m.noise.seed << '\n';
  }

  // The active stack's fields, in its field walk's order.
  const StackRow& stack = stackRow(m.kind);
  MachineConfig walked = m;  // the walk hands out mutable pointers
  for (const StackField& sf : stack.fields(walked))
    os << stack.section << '.' << sf.sigKey << '=' << sf.text() << '\n';
  return os.str();
}

std::string machineHash(const MachineConfig& m) {
  const std::string sig = machineSignature(m);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : sig) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return strFormat("%016llx", static_cast<unsigned long long>(h));
}

MachineConfig gmMachine() { return paperMachine("gm", TransportKind::Gm); }

MachineConfig portalsMachine() {
  return paperMachine("portals", TransportKind::Portals);
}

MachineConfig progressThreadMachine() {
  auto m = paperMachine("progress_thread", TransportKind::ProgressThread);
  stackRow(m.kind).place(m);  // the engine's own core: CPU 1 of 2
  return m;
}

MachineConfig progressOversubMachine() {
  auto m = paperMachine("progress_oversub", TransportKind::ProgressThread);
  m.progress.dedicatedCore = false;  // engine steals cycles from CPU 0
  return m;
}

MachineConfig rdmaMachine() {
  return paperMachine("rdma", TransportKind::Rdma);
}

}  // namespace comb::backend
