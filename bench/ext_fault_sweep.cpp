// Extension — fault sweep: what the retransmission protocols salvage.
//
// Sweeps the fabric's packet-drop probability on both machine models and
// plots surviving bandwidth and availability. Expected shape (see
// EXPERIMENTS.md): bandwidth decays monotonically with drop rate on both
// stacks, but Portals availability degrades slower than GM's at equal
// drop rate — Portals retransmits from NIC-retained buffers with zero
// host involvement, while GM re-stages eager bytes on the host CPU,
// inside MPI library calls.
//
// Every point runs with the same fault seed, so the sweep is
// bit-reproducible for any --jobs value; the bench verifies that too.
#include "fig_common.hpp"

#include <algorithm>

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

namespace {

PollingParams faultPollingBase() {
  auto p = presets::pollingBase(100_KB);
  p.pollInterval = 30'000;
  p.targetDuration = 20e-3;
  p.maxPolls = 20'000;
  return p;
}

std::vector<PollingPoint> faultSweep(const backend::MachineConfig& machine,
                                     const std::vector<double>& drops,
                                     const net::FaultSpec& tmpl, int jobs) {
  // Note: the default 2 ms ack timeout is deliberately conservative.
  // With queue-depth-8 x 100 KB traffic both ways, acks queue behind
  // data; a tighter timeout causes spurious retransmissions that feed
  // back into more congestion until the retry budget blows.
  const auto base = faultPollingBase();
  return runSweepParallel(
      machine, drops,
      [&](const backend::MachineConfig& m, const double drop) {
        auto fault = tmpl;
        fault.dropProb = drop;
        RunOptions opts;
        opts.fault = fault;
        return runPollingPoint(m, base, opts);
      },
      jobs);
}

bool samePoint(const PollingPoint& a, const PollingPoint& b) {
  return a.availability == b.availability &&
         a.bandwidthBps == b.bandwidthBps && a.liveTime == b.liveTime &&
         a.messagesReceived == b.messagesReceived &&
         a.fault.dropsInjected == b.fault.dropsInjected &&
         a.fault.retransmits == b.fault.retransmits &&
         a.fault.timeoutWakeups == b.fault.timeoutWakeups &&
         a.fault.duplicatesFiltered == b.fault.duplicatesFiltered;
}

template <typename F>
report::Series dropSeries(const std::string& name,
                          const std::vector<double>& drops,
                          const std::vector<PollingPoint>& pts, F&& yOf) {
  report::Series s;
  s.name = name;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    s.xs.push_back(100.0 * drops[i]);
    s.ys.push_back(yOf(pts[i]));
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "ext_fault_sweep",
      "bandwidth/availability vs link drop rate, GM vs Portals");
  if (!args.parsedOk) return args.exitCode;

  const std::vector<double> drops{0.0, 0.005, 0.01, 0.02, 0.05, 0.1};
  // --fault supplies the non-swept knobs (burst, corrupt, jitter, seed);
  // the drop rate itself is the swept axis.
  net::FaultSpec tmpl;
  tmpl.burstLen = 2;
  if (args.opts.fault) tmpl = *args.opts.fault;

  const auto gm = faultSweep(backend::gmMachine(), drops, tmpl, args.opts.jobs);
  const auto portals =
      faultSweep(backend::portalsMachine(), drops, tmpl, args.opts.jobs);
  // Re-run one sweep serially: a parallel schedule must not change bits.
  const auto gmSerial = faultSweep(backend::gmMachine(), drops, tmpl, 1);

  const auto bwOf = [](const PollingPoint& p) {
    return toMBps(p.bandwidthBps);
  };
  const auto availOf = [](const PollingPoint& p) { return p.availability; };

  report::Figure availFig("ext_fault_avail",
                          "Extension: Availability vs Drop Rate",
                          "drop_percent", "availability");
  availFig.paperExpectation(
      "Portals availability decays slower than GM's: NIC-resident "
      "retransmission costs the host nothing, GM re-staging does");
  availFig.addSeries(dropSeries("GM", drops, gm, availOf));
  availFig.addSeries(dropSeries("Portals", drops, portals, availOf));
  availFig.render(std::cout);
  if (args.csv)
    std::cout << "csv: " << availFig.writeCsvFile(args.outDir) << '\n';

  report::Figure fig("ext_fault_bw", "Extension: Bandwidth vs Drop Rate",
                     "drop_percent", "bandwidth_MBps");
  fig.paperExpectation(
      "goodput decays monotonically with drop rate on both stacks; "
      "delivery stays exactly-once throughout");
  auto gmBwS = dropSeries("GM", drops, gm, bwOf);
  auto ptlBwS = dropSeries("Portals", drops, portals, bwOf);

  std::vector<report::ShapeCheck> checks;
  const double slackBw = 0.03 * std::max(gmBwS.ys[0], ptlBwS.ys[0]);
  checks.push_back(report::checkNearlyMonotone(
      "bandwidth non-increasing in drop rate (GM)", gmBwS.ys, false, slackBw));
  checks.push_back(report::checkNearlyMonotone(
      "bandwidth non-increasing in drop rate (Portals)", ptlBwS.ys, false,
      slackBw));

  bool availInRange = true;
  for (const auto* pts : {&gm, &portals})
    for (const auto& p : *pts)
      availInRange =
          availInRange && p.availability >= 0.0 && p.availability <= 1.0;
  checks.push_back(report::ShapeCheck{"availability within [0, 1]",
                                      availInRange, ""});

  bool lossDetected = true, recoveryActive = true;
  for (const auto* pts : {&gm, &portals}) {
    for (std::size_t i = 0; i < drops.size(); ++i) {
      if (drops[i] == 0.0) continue;
      lossDetected = lossDetected && (*pts)[i].fault.dropsInjected > 0;
      recoveryActive = recoveryActive && (*pts)[i].fault.retransmits > 0;
    }
  }
  checks.push_back(report::ShapeCheck{
      "every lossy point injected drops", lossDetected, ""});
  checks.push_back(report::ShapeCheck{
      "every lossy point retransmitted", recoveryActive, ""});

  // Relative availability decay, zero-drop point vs the worst drop rate.
  const double gmDecay = gm[0].availability > 0
                             ? gm.back().availability / gm[0].availability
                             : 0.0;
  const double ptlDecay =
      portals[0].availability > 0
          ? portals.back().availability / portals[0].availability
          : 0.0;
  checks.push_back(report::ShapeCheck{
      "Portals availability decays slower than GM under loss",
      ptlDecay >= gmDecay,
      strFormat("retained at 10%% drop: Portals %.0f%%, GM %.0f%%",
                100.0 * ptlDecay, 100.0 * gmDecay)});

  bool bitIdentical = gmSerial.size() == gm.size();
  for (std::size_t i = 0; bitIdentical && i < gm.size(); ++i)
    bitIdentical = samePoint(gm[i], gmSerial[i]);
  checks.push_back(report::ShapeCheck{
      strFormat("bit-identical results for --jobs 1 vs --jobs %d",
                args.opts.jobs),
      bitIdentical, ""});

  fig.addSeries(std::move(gmBwS));
  fig.addSeries(std::move(ptlBwS));
  return finishFigure(fig, checks, args);
}
