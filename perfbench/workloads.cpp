#include "workloads.hpp"

#include <cmath>
#include <ostream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/units.hpp"

namespace perfbench {

namespace {

using comb::Rng;
using namespace comb::units;

// Points per family, sized so a pass takes a few seconds on one core.
// Every pass has >= 100 points, so the p90 of point cost has >= 10
// points beyond it.
constexpr int kPollingPerFamily = 60;    // 2 sizes -> 120 points
// PWW point cost is bimodal in the size (eager ~2 ms, rendezvous ~6 ms);
// unequal shares keep p50 and p90 inside a mode rather than on the gap.
constexpr int kPwwEagerPerStack = 22;       // 10 KB
constexpr int kPwwRendezvousPerStack = 12;  // 100 KB; 3 stacks -> 102
constexpr int kCongestionPerFamily = 26;  // 2 stacks x 2 patterns -> 104

/// Simulated measuring window of a polling point: a twelfth of the figure
/// benches' 60 ms, so that a run fits a dozen passes to take each point's
/// fastest from.
constexpr comb::Time kPollingWindow = 5e-3;
/// Measured PWW cycles per point (the figure benches run 24).
constexpr int kPwwCycles = 96;

/// Machine definition text: the paper's Myrinet substrate on `stack`,
/// plus whatever extra sections the workload needs.
std::string machineText(const std::string& stack, int switchPorts,
                        const std::string& extra) {
  return comb::strFormat(
             "name = perfbench-%s\n"
             "transport = %s\n"
             "\n[fabric]\n"
             "link_rate_MBps    = 90\n"
             "link_latency_us   = 2\n"
             "switch_latency_us = 0.5\n"
             "switch_ports      = %d\n"
             "mtu               = 4096\n"
             "packet_header     = 64\n",
             stack.c_str(), stack.c_str(), switchPorts) +
         extra;
}

/// Share of its slice over which a stratified draw may land, centred on
/// the slice. Less than the whole slice: point costs are steep and uneven
/// in the swept values, and a full-slice draw moves a run's percentiles
/// by more than the host noise does.
constexpr double kJitter = 0.5;

/// Stratified draws: value i lies in the middle kJitter of the i-th of n
/// equal slices of [0,1).
std::vector<double> stratified(Rng& rng, int n) {
  std::vector<double> u(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    u[static_cast<std::size_t>(i)] =
        (i + 0.5 + kJitter * (rng.uniform() - 0.5)) / n;
  return u;
}

/// Log-uniform integers over [lo, hi], stratified, strictly increasing
/// (archive points of one sweep are keyed by x).
std::vector<std::uint64_t> logUniform(Rng& rng, int n, double lo, double hi) {
  std::vector<std::uint64_t> xs;
  for (const double u : stratified(rng, n)) {
    auto v = static_cast<std::uint64_t>(
        std::llround(lo * std::pow(hi / lo, u)));
    if (!xs.empty() && v <= xs.back()) v = xs.back() + 1;
    xs.push_back(v);
  }
  return xs;
}

std::vector<std::uint64_t> uniformInts(Rng& rng, int n, std::uint64_t lo,
                                       std::uint64_t hi) {
  std::vector<std::uint64_t> xs;
  const double span = static_cast<double>(hi - lo + 1);
  for (const double u : stratified(rng, n)) {
    auto v = lo + static_cast<std::uint64_t>(u * span);
    if (!xs.empty() && v <= xs.back()) v = xs.back() + 1;
    xs.push_back(v);
  }
  return xs;
}

const char* sizeLabel(comb::Bytes b) { return b == 10_KB ? "10KB" : "100KB"; }

Workload pollingPortalsIrq(std::uint64_t seed) {
  Workload w;
  w.name = "polling_portals_irq";
  w.why =
      "Portals polling on 2 nodes, lossless: every fragment interrupts the "
      "host, so sim, host ISR and the Portals nic do the work";
  Rng rng(seed);
  const auto machine = machineText(
      "portals", 16, "\n[host]\nseconds_per_iter_ns = 4\n");
  for (const comb::Bytes size : {10_KB, 100_KB}) {
    for (const auto interval : logUniform(rng, kPollingPerFamily, 10, 1e6)) {
      PointSpec p;
      p.family = std::string("polling/portals/") + sizeLabel(size);
      p.method = Method::Polling;
      p.machineText = machine;
      p.x = interval;
      p.polling.msgBytes = size;
      p.polling.pollInterval = interval;
      p.polling.targetDuration = kPollingWindow;
      w.points.push_back(std::move(p));
    }
  }
  return w;
}

Workload pwwStacksLossy(std::uint64_t seed) {
  Workload w;
  w.name = "pww_stacks_lossy";
  w.why =
      "PWW on gm, portals and rdma over links dropping 1%: the nic "
      "ack/retransmit/dedup path and rendezvous transport do the work";
  Rng rng(seed);
  std::uint64_t faultStream = seed ^ 0xFA17u;
  // progress_thread is left out: its 10 KB PWW deadlocks the simulator
  // ("drained with suspended processes") near a work interval of 5e4
  // iterations, lossy or not, and a traced run of it terminates on
  // interleaved "pt-engine"/"progress" trace spans.
  for (const char* stack : {"gm", "portals", "rdma"}) {
    for (const comb::Bytes size : {10_KB, 100_KB}) {
      const int n = size == 10_KB ? kPwwEagerPerStack : kPwwRendezvousPerStack;
      for (const auto work : logUniform(rng, n, 1e3, 1e7)) {
        PointSpec p;
        p.family = std::string("pww/") + stack + "/" + sizeLabel(size);
        p.method = Method::Pww;
        p.machineText = machineText(
            stack, 16,
            comb::strFormat("\n[fault]\ndrop = 0.01\nseed = %llu\n",
                            static_cast<unsigned long long>(
                                comb::splitmix64(faultStream))));
        p.x = work;
        p.pww.msgBytes = size;
        p.pww.workInterval = work;
        p.pww.reps = kPwwCycles;
        w.points.push_back(std::move(p));
      }
    }
  }
  return w;
}

Workload incastFattreeSharded(std::uint64_t seed) {
  Workload w;
  w.name = "incast_fattree_sharded";
  w.why =
      "incast and all-to-all on a credit fat-tree, 64-256 nodes, sim-jobs 2: "
      "switch queues, cluster build and cross-shard windows do the work";
  Rng rng(seed);
  // 8 nodes + 4 spines per leaf: 2*8 + 2*4 = 24 unidirectional ports;
  // 2:1 oversubscribed trunks, 32-packet queues, lossless credits.
  const std::string topology =
      "\n[topology]\n"
      "kind                = fat-tree\n"
      "nodes_per_switch    = 8\n"
      "spines              = 4\n"
      "trunk_rate_scale    = 1.0\n"
      "queue_depth_packets = 32\n"
      "arbitration         = rr\n"
      "backpressure        = credit\n";
  using comb::bench::CongestionPattern;
  for (const char* stack : {"gm", "portals"}) {
    for (const auto pattern :
         {CongestionPattern::Incast, CongestionPattern::AllToAll}) {
      for (const auto nodes : uniformInts(rng, kCongestionPerFamily, 64, 256)) {
        PointSpec p;
        p.family = std::string("congestion/") + stack + "/" +
                   comb::bench::congestionPatternName(pattern);
        p.method = Method::Congestion;
        p.machineText = machineText(stack, 24, topology);
        p.nodes = static_cast<int>(nodes);
        p.simJobs = 2;
        p.x = nodes;
        p.congestion.nodes = nodes;
        p.congestion.pattern = pattern;
        p.congestion.msgBytes = 64_KB;  // past both eager thresholds
        p.congestion.messagesPerSender = 1;
        p.congestion.window = 8;
        p.congestion.pollInterval = 50'000;
        w.points.push_back(std::move(p));
      }
    }
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{
      "polling_portals_irq", "pww_stacks_lossy", "incast_fattree_sharded"};
  return names;
}

Workload makeWorkload(const std::string& name, std::uint64_t seed) {
  if (name == "polling_portals_irq") return pollingPortalsIrq(seed);
  if (name == "pww_stacks_lossy") return pwwStacksLossy(seed);
  if (name == "incast_fattree_sharded") return incastFattreeSharded(seed);
  throw comb::ConfigError("unknown workload '" + name + "'");
}

void printInputs(std::ostream& out, const Workload& w) {
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const auto& p = w.points[i];
    out << "input " << i << ": " << p.family << " x=" << p.x
        << " nodes=" << p.nodes << " sim_jobs=" << p.simJobs;
    const auto seedAt = p.machineText.find("seed = ");
    if (seedAt != std::string::npos)
      out << " fault_seed="
          << p.machineText.substr(seedAt + 7,
                                  p.machineText.find('\n', seedAt) - seedAt - 7);
    out << '\n';
  }
}

}  // namespace perfbench
