#include "backend/machine_file.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "net/switch.hpp"
#include "net/topology.hpp"

namespace comb::backend {
namespace {

MachineConfig parse(const std::string& text) {
  std::istringstream in(text);
  return parseMachineFile(in, "test.ini");
}

TEST(MachineFile, EmptyFileYieldsGmDefaults) {
  const auto m = parse("");
  EXPECT_EQ(m.kind, TransportKind::Gm);
  EXPECT_EQ(m.name, "gm");
  EXPECT_DOUBLE_EQ(m.fabric.link.rate, 90e6);
  EXPECT_EQ(m.cpusPerNode, 1);
}

TEST(MachineFile, FullGmDefinition) {
  const auto m = parse(R"(
name = custom-gm
transport = gm

[fabric]
link_rate_MBps = 200
link_latency_us = 1.5
mtu = 8192

[host]
seconds_per_iter_ns = 2

[gm]
eager_threshold_kb = 32
post_overhead_us = 3
)");
  EXPECT_EQ(m.name, "custom-gm");
  EXPECT_DOUBLE_EQ(m.fabric.link.rate, 200e6);
  EXPECT_DOUBLE_EQ(m.fabric.link.latency, 1.5e-6);
  EXPECT_EQ(m.fabric.mtu, 8192u);
  EXPECT_DOUBLE_EQ(m.secondsPerWorkIter, 2e-9);
  EXPECT_EQ(m.gm.eagerThreshold, 32u * 1024u);
  EXPECT_DOUBLE_EQ(m.gm.postOverhead, 3e-6);
  // Untouched keys keep preset defaults.
  EXPECT_DOUBLE_EQ(m.gm.libCallCost, 0.7e-6);
}

TEST(MachineFile, PortalsDefinitionWithSmp) {
  const auto m = parse(R"(
transport = portals
[host]
cpus_per_node = 2
nic_cpu = 1
[portals]
per_frag_rx_us = 10
kernel_copy_MBps = 500
)");
  EXPECT_EQ(m.kind, TransportKind::Portals);
  EXPECT_EQ(m.cpusPerNode, 2);
  EXPECT_EQ(m.nicCpu, 1);
  EXPECT_DOUBLE_EQ(m.portals.nic.perFragRx, 10e-6);
  EXPECT_DOUBLE_EQ(m.portals.nic.kernelCopyRate, 500e6);
  EXPECT_DOUBLE_EQ(m.portals.postSyscall, 15e-6);  // default kept
}

TEST(MachineFile, CommentsAndWhitespaceIgnored) {
  const auto m = parse(R"(
# full-line comment
name = spaced   ; trailing comment
   [fabric]
  link_rate_MBps =   42   # another
)");
  EXPECT_EQ(m.name, "spaced");
  EXPECT_DOUBLE_EQ(m.fabric.link.rate, 42e6);
}

TEST(MachineFile, UnknownKeyRejected) {
  EXPECT_THROW(parse("[fabric]\nlink_rate_mbps = 90\n"), ConfigError);
  EXPECT_THROW(parse("typo_toplevel = 1\n"), ConfigError);
}

TEST(MachineFile, WrongSectionKeyRejected) {
  // gm keys are unknown when transport = portals.
  EXPECT_THROW(parse("transport = portals\n[gm]\npost_overhead_us = 5\n"),
               ConfigError);
}

TEST(MachineFile, BadValueRejected) {
  EXPECT_THROW(parse("[fabric]\nlink_rate_MBps = fast\n"), ConfigError);
  EXPECT_THROW(parse("transport = infiniband\n"), ConfigError);
  EXPECT_THROW(parse("[fabric]\nlink_rate_MBps = 0\n"), ConfigError);
}

TEST(MachineFile, MalformedSyntaxRejected) {
  EXPECT_THROW(parse("[fabric\nmtu = 1\n"), ConfigError);
  EXPECT_THROW(parse("justakey\n"), ConfigError);
  EXPECT_THROW(parse("name =\n"), ConfigError);
  EXPECT_THROW(parse("name = a\nname = b\n"), ConfigError);  // duplicate
}

TEST(MachineFile, BadSmpComboRejected) {
  EXPECT_THROW(parse("[host]\nnic_cpu = 1\n"), ConfigError);  // 1 CPU only
}

TEST(MachineFile, FaultSectionAndReliabilityKeys) {
  const auto m = parse(R"(
transport = portals
[fault]
drop = 0.02
burst = 3
corrupt = 0.01
jitter_us = 2
seed = 42
[portals]
ack_timeout_us = 500
ack_bytes = 32
max_retries = 4
backoff = 1.5
)");
  EXPECT_DOUBLE_EQ(m.fabric.link.fault.dropProb, 0.02);
  EXPECT_EQ(m.fabric.link.fault.burstLen, 3);
  EXPECT_DOUBLE_EQ(m.fabric.link.fault.corruptProb, 0.01);
  EXPECT_NEAR(m.fabric.link.fault.jitter, 2e-6, 1e-15);
  EXPECT_EQ(m.fabric.link.fault.seed, 42u);
  EXPECT_NEAR(m.portals.rel.ackTimeout, 500e-6, 1e-12);
  EXPECT_EQ(m.portals.rel.ackBytes, 32u);
  EXPECT_EQ(m.portals.rel.maxRetries, 4);
  EXPECT_DOUBLE_EQ(m.portals.rel.backoff, 1.5);

  const auto gm = parse("[gm]\nmax_retries = 6\n");
  EXPECT_EQ(gm.gm.rel.maxRetries, 6);
}

TEST(MachineFile, BadFaultOrReliabilityRejected) {
  EXPECT_THROW(parse("[fault]\ndrop = 1.5\n"), ConfigError);
  EXPECT_THROW(parse("[fault]\nburst = 0\n"), ConfigError);
  EXPECT_THROW(parse("[gm]\nmax_retries = 0\n"), ConfigError);
  EXPECT_THROW(parse("[gm]\nbackoff = 0.5\n"), ConfigError);
  // Reliability keys follow the active transport's section.
  EXPECT_THROW(parse("transport = portals\n[gm]\nack_timeout_us = 5\n"),
               ConfigError);
}

TEST(MachineFile, BundledFilesParse) {
  // The files shipped in machines/ must stay valid and match the presets.
  const auto gm = loadMachineFile(std::string(COMB_SOURCE_DIR) +
                                  "/machines/paper_gm.ini");
  EXPECT_EQ(gm.kind, TransportKind::Gm);
  EXPECT_DOUBLE_EQ(gm.fabric.link.rate, gmMachine().fabric.link.rate);
  EXPECT_EQ(gm.gm.eagerThreshold, gmMachine().gm.eagerThreshold);

  const auto portals = loadMachineFile(std::string(COMB_SOURCE_DIR) +
                                       "/machines/paper_portals.ini");
  EXPECT_EQ(portals.kind, TransportKind::Portals);
  EXPECT_DOUBLE_EQ(portals.portals.nic.perFragRx,
                   portalsMachine().portals.nic.perFragRx);

  const auto smp = loadMachineFile(std::string(COMB_SOURCE_DIR) +
                                   "/machines/smp_steered_portals.ini");
  EXPECT_EQ(smp.cpusPerNode, 2);
  EXPECT_EQ(smp.nicCpu, 1);

  const auto ft = loadMachineFile(std::string(COMB_SOURCE_DIR) +
                                  "/machines/fat_tree_gm.ini");
  EXPECT_EQ(ft.fabric.topo.kind, net::TopologyKind::FatTree);
  EXPECT_EQ(ft.fabric.topo.nodesPerSwitch, 8);
  EXPECT_EQ(ft.fabric.sw.queue.backpressure, net::Backpressure::Credit);

  const auto df = loadMachineFile(std::string(COMB_SOURCE_DIR) +
                                  "/machines/dragonfly_portals.ini");
  EXPECT_EQ(df.fabric.topo.kind, net::TopologyKind::Dragonfly);
  EXPECT_EQ(df.fabric.topo.groups, 4);
  EXPECT_EQ(df.fabric.sw.queue.depthPackets, 16);
}

TEST(MachineFile, PresetHashesPinned) {
  // Archives store these hashes; `comb compare` treats a changed hash as
  // a different machine, so no refactor of the parser or the signature
  // may move them. The preset values match archives/ext_progress_smoke.json.
  EXPECT_EQ(machineHash(gmMachine()), "6533203c4f2f57b9");
  EXPECT_EQ(machineHash(portalsMachine()), "4bcb1a90a5f68d42");
  EXPECT_EQ(machineHash(progressThreadMachine()), "82d78519e72df98d");
  EXPECT_EQ(machineHash(progressOversubMachine()), "5af83f5ba3bc9234");
  EXPECT_EQ(machineHash(rdmaMachine()), "0ac2b636117cf8a9");
}

TEST(MachineFile, BundledFileHashesPinned) {
  const std::pair<const char*, const char*> pinned[] = {
      {"dragonfly_portals", "1aee66ee2e64c35b"},
      {"fat_tree_gm", "4b527d89b6c801de"},
      {"paper_gm", "10d20e58f14d81da"},
      {"paper_portals", "ea153b4cf871f625"},
      {"progress_thread", "f60174bc407d414f"},
      {"rdma", "0ac2b636117cf8a9"},
      {"smp_steered_portals", "5388c5c198c9a2c9"},
  };
  for (const auto& [file, hash] : pinned) {
    const auto m = loadMachineFile(std::string(COMB_SOURCE_DIR) +
                                   "/machines/" + file + ".ini");
    EXPECT_EQ(machineHash(m), hash) << file;
  }
}

TEST(MachineFile, MissingFileRejected) {
  EXPECT_THROW(loadMachineFile("/nonexistent/machine.ini"), ConfigError);
}

TEST(MachineFile, TopologySectionDefaultsToSingle) {
  const auto m = parse("");
  EXPECT_EQ(m.fabric.topo.kind, net::TopologyKind::SingleSwitch);
  EXPECT_EQ(m.fabric.sw.queue.depthPackets, 0);  // idealized crossbar
  EXPECT_EQ(m.fabric.sw.ports, 16);  // 8-port full-duplex, unidirectional
}

TEST(MachineFile, FatTreeTopologyParsed) {
  const auto m = parse(R"(
[fabric]
switch_ports = 24
[topology]
kind = fat-tree
nodes_per_switch = 8
spines = 4
trunk_rate_scale = 0.5
queue_depth_packets = 32
queue_depth_bytes = 262144
arbitration = fifo
backpressure = credit
)");
  EXPECT_EQ(m.fabric.topo.kind, net::TopologyKind::FatTree);
  EXPECT_EQ(m.fabric.topo.nodesPerSwitch, 8);
  EXPECT_EQ(m.fabric.topo.spines, 4);
  EXPECT_DOUBLE_EQ(m.fabric.topo.trunkRateScale, 0.5);
  EXPECT_EQ(m.fabric.sw.queue.depthPackets, 32);
  EXPECT_EQ(m.fabric.sw.queue.depthBytes, 262144u);
  EXPECT_EQ(m.fabric.sw.queue.arbitration, net::Arbitration::Fifo);
  EXPECT_EQ(m.fabric.sw.queue.backpressure, net::Backpressure::Credit);
  EXPECT_DOUBLE_EQ(m.fabric.topo.oversubscription(), 4.0);
}

TEST(MachineFile, DragonflyTopologyParsed) {
  const auto m = parse(R"(
[topology]
kind = dragonfly
nodes_per_switch = 4
groups = 4
routers_per_group = 2
queue_depth_packets = 16
)");
  EXPECT_EQ(m.fabric.topo.kind, net::TopologyKind::Dragonfly);
  EXPECT_EQ(m.fabric.topo.groups, 4);
  EXPECT_EQ(m.fabric.topo.routersPerGroup, 2);
  EXPECT_EQ(m.fabric.sw.queue.depthPackets, 16);
  // Queue defaults: round-robin arbitration, tail drop.
  EXPECT_EQ(m.fabric.sw.queue.arbitration, net::Arbitration::RoundRobin);
  EXPECT_EQ(m.fabric.sw.queue.backpressure, net::Backpressure::TailDrop);
}

TEST(MachineFile, BadTopologyRejected) {
  EXPECT_THROW(parse("[topology]\nkind = mesh\n"), ConfigError);
  EXPECT_THROW(parse("[topology]\narbitration = lifo\n"), ConfigError);
  EXPECT_THROW(parse("[topology]\nbackpressure = nack\n"), ConfigError);
  EXPECT_THROW(parse("[topology]\ntrunk_rate_scale = 0\n"), ConfigError);
  // validateTopology runs at parse time: a fat-tree leaf radix beyond the
  // switch port budget must be rejected, not deferred to the first run.
  EXPECT_THROW(parse("[fabric]\nswitch_ports = 8\n"
                     "[topology]\nkind = fat-tree\n"
                     "nodes_per_switch = 8\nspines = 4\n"),
               ConfigError);
}

}  // namespace
}  // namespace comb::backend
