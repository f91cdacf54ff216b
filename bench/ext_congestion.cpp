// Extension — congestion at scale: incast / hotspot / pairwise all-to-all
// on a two-level fat-tree, 64 to 1024 nodes, GM vs Portals.
//
// The paper measures one pair on an idle 8-port switch. This extension
// asks how the same stacks behave when the *fabric* is the bottleneck:
// finite per-output-port switch queues, oversubscribed trunks, and
// traffic matrices that concentrate load. Reported per point:
//
//   * aggregate delivered bandwidth (total payload / makespan),
//   * per-sender goodput (delivered share of the slowest pattern),
//   * work-loop availability (min over nodes),
//   * switch-queue drops / credit stalls and peak queue depth.
//
// The scale sweeps run *credit backpressure* — the fabrics of the paper's
// era (Myrinet, the Portals machines) are lossless, backpressured
// networks, and tail drop under sustained incast drives both stacks into
// retransmission collapse (the Portals NIC's autonomous retries re-collide
// until exponential backoff dominates the makespan by orders of
// magnitude). A tail-drop incast side sweep (GM, smaller scale) keeps the
// lossy path honest: drops engage, retransmission still delivers every
// message.
//
// Expected shapes: incast per-sender goodput decays ~1/N (one victim
// downlink shared by N-1 senders), the lossless sweeps finish with zero
// drops and zero retransmissions, and the GM-vs-Portals bandwidth ratio
// deforms across patterns as contention replaces host overhead as the
// limiting resource.
//
// Node counts default to {64, 256}; set COMB_CONGESTION_MAX_NODES=1024
// for the full-scale run (the 1024-node incast pushes ~128 MB of payload
// through one victim downlink).
#include "fig_common.hpp"

#include <cstdlib>
#include <cstring>

#include "backend/stacks.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

namespace {

backend::MachineConfig congestedFatTree(backend::TransportKind kind,
                                        net::Backpressure bp) {
  const backend::StackRow& stack = backend::stackRow(kind);
  auto m = stack.presets.front().make();
  // 8 nodes + 4 spines per leaf: 2*8 + 2*4 = 24 unidirectional ports.
  m.fabric.sw.ports = 24;
  m.fabric.topo.kind = net::TopologyKind::FatTree;
  m.fabric.topo.nodesPerSwitch = 8;
  m.fabric.topo.spines = 4;  // 2:1 oversubscribed at trunk_rate_scale 1
  m.fabric.sw.queue.depthPackets = 32;
  m.fabric.sw.queue.backpressure = bp;
  // For the tail-drop side sweep: sustained incast makes drops the common
  // case, not the exception — the default retry budget (sized for
  // lossy-link fault injection) starves.
  stack.rel(m).maxRetries = 64;
  return m;
}

CongestionParams baseParams(CongestionPattern pattern) {
  CongestionParams p;
  p.pattern = pattern;
  p.msgBytes = 64_KB;  // past both eager thresholds: rendezvous traffic
  p.messagesPerSender = 2;
  p.window = 8;
  p.pollInterval = 50'000;
  return p;
}

std::vector<std::uint64_t> nodeCounts() {
  std::vector<std::uint64_t> nodes{64, 256};
  if (const char* cap = std::getenv("COMB_CONGESTION_MAX_NODES"))
    if (std::strtoull(cap, nullptr, 10) >= 1024) nodes.push_back(1024);
  return nodes;
}

std::uint64_t expectedDeliveries(const CongestionParams& p) {
  std::uint64_t total = 0;
  for (std::uint64_t r = 0; r < p.nodes; ++r)
    total += congestionDests(p, static_cast<int>(r)).size();
  return total;
}

/// GM first: the deformation ratio below is GM's aggregate over Portals'.
constexpr std::pair<backend::TransportKind, const char*> kContenders[] = {
    {backend::TransportKind::Gm, "GM"},
    {backend::TransportKind::Portals, "Portals"}};

void printPoint(const std::string& label, std::uint64_t n,
                const CongestionPoint& pt) {
  std::printf(
      "%-22s n=%-5llu agg=%8.1f MB/s sender=%6.2f MB/s avail=%.3f "
      "qdrops=%llu stalls=%llu qpeak=%llu retx=%llu\n",
      label.c_str(), static_cast<unsigned long long>(n),
      toMBps(pt.bandwidthBps), toMBps(pt.meanNodeBandwidthBps),
      pt.minAvailability,
      static_cast<unsigned long long>(pt.switches.dropsQueue),
      static_cast<unsigned long long>(pt.switches.creditStalls),
      static_cast<unsigned long long>(pt.switches.queuePeakPackets),
      static_cast<unsigned long long>(pt.fault.retransmits));
}

}  // namespace

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "ext_congestion",
      "incast/hotspot/all-to-all on an oversubscribed fat-tree, 64-1024 "
      "nodes, GM vs Portals");
  if (!args.parsedOk) return args.exitCode;

  const auto nodes = nodeCounts();
  const std::vector<CongestionPattern> patterns{CongestionPattern::Incast,
                                                CongestionPattern::Hotspot,
                                                CongestionPattern::AllToAll};

  FigArchive archive("ext_congestion", args);
  report::Figure bwFig("ext_congestion_bw",
                       "Extension: Aggregate Bandwidth Under Congestion "
                       "(fat-tree 8x4, credit backpressure)",
                       "nodes", "aggregate_MBps");
  bwFig.paperExpectation(
      "incast pins the aggregate at one victim downlink while all-to-all "
      "scales with the node count; the lossless fabric delivers everything "
      "without a single retransmission");
  report::Figure availFig("ext_congestion_avail",
                          "Extension: Worst-Node Availability Under "
                          "Congestion (fat-tree 8x4, credit backpressure)",
                          "nodes", "min_availability");

  std::vector<report::ShapeCheck> checks;
  bool allDelivered = true;
  bool lossless = true;
  bool queueObserved = true;
  // Deformation data: GM/Portals aggregate-bandwidth ratio per pattern at
  // the largest node count.
  std::vector<double> ratioAtMax(patterns.size(), 0.0);

  for (std::size_t si = 0; si < std::size(kContenders); ++si) {
    const auto& [kind, stackLabel] = kContenders[si];
    const auto machine = congestedFatTree(kind, net::Backpressure::Credit);
    for (std::size_t pi = 0; pi < patterns.size(); ++pi) {
      const auto pattern = patterns[pi];
      const auto runs = runSweepReps(
          machine, sweepOver(baseParams(pattern), nodes), args.opts);
      const auto points = canonicalPoints(runs);
      const std::string label = std::string(stackLabel) + " " +
                                congestionPatternName(pattern);
      archive.add("congestion/" + label, machine, nodes, runs);

      bwFig.addSeries(makeSeries(label, nodes, points,
                                 [](const CongestionPoint& p) {
                                   return toMBps(p.bandwidthBps);
                                 }));
      availFig.addSeries(makeSeries(label, nodes, points,
                                    [](const CongestionPoint& p) {
                                      return p.minAvailability;
                                    }));

      std::vector<double> perSender;
      for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& pt = points[i];
        auto p = baseParams(pattern);
        p.nodes = nodes[i];
        allDelivered =
            allDelivered && pt.messagesDelivered == expectedDeliveries(p);
        lossless = lossless && pt.switches.dropsQueue == 0 &&
                   pt.fault.retransmits == 0;
        queueObserved = queueObserved && pt.switches.queuePeakPackets > 0;
        perSender.push_back(pt.meanNodeBandwidthBps);
        printPoint(label, nodes[i], pt);
      }
      if (pattern == CongestionPattern::Incast) {
        checks.push_back(report::checkNearlyMonotone(
            std::string("incast per-sender goodput falls with fan-in (") +
                stackLabel + ")",
            perSender, false, 0.0));
      }
      if (si == 0)
        ratioAtMax[pi] = points.back().bandwidthBps;
      else if (points.back().bandwidthBps > 0)
        ratioAtMax[pi] /= points.back().bandwidthBps;
    }
  }

  // Tail-drop side sweep: GM incast at the lower node counts. Lossy
  // queues engage the transport's retransmission protocol under real
  // congestion (not injected faults) and it must still deliver everything.
  const auto dropMachine =
      congestedFatTree(backend::TransportKind::Gm, net::Backpressure::TailDrop);
  const auto dropSpec = sweepOver(baseParams(CongestionPattern::Incast),
                                  std::vector<std::uint64_t>{64, 128});
  const auto dropRuns = runSweepReps(dropMachine, dropSpec, args.opts);
  const auto dropPoints = canonicalPoints(dropRuns);
  {
    const auto& dropNodes = dropSpec.values;
    const auto& points = dropPoints;
    archive.add("congestion/GM incast taildrop", dropMachine, dropNodes,
                dropRuns);
    bool dropsSeen = true, dropDelivered = true, retxSeen = true;
    std::vector<double> drops;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto& pt = points[i];
      auto p = baseParams(CongestionPattern::Incast);
      p.nodes = dropNodes[i];
      dropsSeen = dropsSeen && pt.switches.dropsQueue > 0;
      retxSeen = retxSeen && pt.fault.retransmits > 0;
      dropDelivered =
          dropDelivered && pt.messagesDelivered == expectedDeliveries(p);
      drops.push_back(static_cast<double>(pt.switches.dropsQueue));
      printPoint("GM incast taildrop", dropNodes[i], pt);
    }
    checks.push_back(report::ShapeCheck{
        "tail drop engages under incast (side sweep)", dropsSeen, ""});
    checks.push_back(report::ShapeCheck{
        "retransmission delivers every message despite tail drop",
        dropDelivered && retxSeen, ""});
    checks.push_back(report::checkNearlyMonotone(
        "queue drops grow with fan-in (tail-drop side sweep)", drops, true,
        0.0));
  }
  std::printf("\n");

  checks.push_back(report::ShapeCheck{
      "credit fabric is lossless end to end: zero drops, zero retransmits",
      lossless && allDelivered, ""});
  checks.push_back(report::ShapeCheck{
      "finite queues observed at depth under every pattern", queueObserved,
      ""});
  // Contention deforms the stack signature: the GM:Portals ratio is not
  // one constant across patterns once the fabric is the bottleneck.
  double ratioMin = ratioAtMax[0], ratioMax = ratioAtMax[0];
  for (const double r : ratioAtMax) {
    ratioMin = std::min(ratioMin, r);
    ratioMax = std::max(ratioMax, r);
  }
  checks.push_back(report::ShapeCheck{
      "GM:Portals bandwidth ratio deforms across patterns under contention",
      ratioMax > ratioMin * 1.02,
      strFormat("ratio spans %.3f .. %.3f", ratioMin, ratioMax)});

  // Determinism check: the tail-drop side sweep re-run serially must
  // reproduce the --jobs N sweep above, whole point by whole point.
  {
    RunOptions serial = args.opts;
    serial.jobs = 1;
    const auto again = runSweep(dropMachine, dropSpec, serial);
    std::size_t same = 0;
    for (std::size_t i = 0; i < again.size(); ++i)
      same += again[i] == dropPoints[i] ? 1 : 0;
    checks.push_back(report::ShapeCheck{
        strFormat("bit-identical results for --jobs 1 vs --jobs %d",
                  args.opts.jobs),
        same == dropPoints.size(),
        strFormat("%zu of %zu tail-drop sweep points identical", same,
                  dropPoints.size())});
  }

  availFig.render(std::cout);
  if (args.csv)
    std::cout << "csv: " << availFig.writeCsvFile(args.outDir) << '\n';
  archive.write();
  return finishFigure(bwFig, checks, args);
}
