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
// One run at one fault seed is a single draw: at 10 % drop a 100 KB
// message can outlast the retry budget or stall a short GM window, so
// each drop rate is measured over kStreams fault streams (the --fault
// seed, then seeds derived from it by repSeed). A run whose retry budget
// runs out has collapsed: the stack gave its peer up, so it adds zero
// goodput, no availability sample, and its fault counters up to the
// collapse. Every point uses the same streams, so the sweep is
// bit-reproducible for any --jobs value; the bench verifies that too.
#include "fig_common.hpp"

#include <algorithm>
#include <limits>

#include "transport/reliability.hpp"

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

constexpr int kStreams = 16;

/// One drop rate, summed over its fault streams.
struct DropPoint {
  double dropPercent = 0.0;
  double bandwidthSum = 0.0;  ///< a collapsed stream adds zero goodput
  double availSum = 0.0;      ///< over the streams that finished
  int streams = 0;
  int collapsed = 0;         ///< streams that spent a retry budget
  net::FaultCounters fault;  ///< collapsed streams up to the collapse

  double bandwidthBps() const { return bandwidthSum / streams; }
  /// NaN when every stream collapsed: nothing was measured.
  double availability() const {
    return streams > collapsed ? availSum / (streams - collapsed)
                               : std::numeric_limits<double>::quiet_NaN();
  }
  bool operator==(const DropPoint&) const = default;
};

/// The fault seeds every drop rate runs: the --fault seed itself, then
/// seeds derived from it.
std::vector<std::uint64_t> streamSeeds(std::uint64_t seed) {
  std::vector<std::uint64_t> seeds{seed};
  for (int i = 1; i < kStreams; ++i) seeds.push_back(repSeed(seed, i));
  return seeds;
}

std::vector<DropPoint> faultSweep(const backend::MachineConfig& machine,
                                  const std::vector<double>& drops,
                                  const net::FaultSpec& tmpl,
                                  const std::vector<std::uint64_t>& seeds,
                                  int jobs) {
  // Note: the default 2 ms ack timeout is deliberately conservative.
  // With queue-depth-8 x 100 KB traffic both ways, acks queue behind
  // data; a tighter timeout causes spurious retransmissions that feed
  // back into more congestion until the retry budget blows.
  const auto base = faultPollingBase();
  return runSweepParallel(
      machine, drops,
      [&](const backend::MachineConfig& m, const double drop) {
        DropPoint p;
        p.dropPercent = 100.0 * drop;
        for (const std::uint64_t seed : seeds) {
          ++p.streams;
          RunOptions opts;
          opts.fault = tmpl;
          opts.fault->dropProb = drop;
          opts.fault->seed = seed;
          try {
            const auto run = runPoint(m, base, opts);
            p.bandwidthSum += run.bandwidthBps;
            p.availSum += run.availability;
            p.fault += run.fault;
          } catch (const transport::RetryBudgetExhausted& e) {
            ++p.collapsed;
            p.fault += e.fault;
          }
        }
        return p;
      },
      jobs);
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

  const auto seeds = streamSeeds(tmpl.seed);
  const auto gm =
      faultSweep(backend::gmMachine(), drops, tmpl, seeds, args.opts.jobs);
  const auto portals =
      faultSweep(backend::portalsMachine(), drops, tmpl, seeds, args.opts.jobs);
  // Re-run one sweep serially: a parallel schedule must not change bits.
  const auto gmSerial = faultSweep(backend::gmMachine(), drops, tmpl, seeds, 1);

  const auto dropOf = [](const DropPoint& p) { return p.dropPercent; };
  const auto bwOf = [](const DropPoint& p) { return toMBps(p.bandwidthBps()); };
  const auto availOf = [](const DropPoint& p) { return p.availability(); };
  const auto collapsedOf = [](const DropPoint& p) {
    return static_cast<double>(p.collapsed);
  };

  // Collapses and availability are plotted as measured; the bandwidth
  // figure below carries the shape checks.
  const auto plot = [&](const char* id, const char* title,
                        const std::string& ylabel, const char* expectation,
                        auto yOf) {
    report::Figure f(id, title, "drop_percent", ylabel);
    f.paperExpectation(expectation);
    f.addSeries(makeParametricSeries("GM", gm, dropOf, yOf));
    f.addSeries(makeParametricSeries("Portals", portals, dropOf, yOf));
    f.render(std::cout);
    if (args.csv) std::cout << "csv: " << f.writeCsvFile(args.outDir) << '\n';
  };
  plot("ext_fault_collapsed", "Extension: Runs Given Up vs Drop Rate",
       strFormat("runs_of_%d_collapsed", kStreams),
       "a run collapses when one message spends its retry budget; the "
       "sweep keeps the point and counts it",
       collapsedOf);
  plot("ext_fault_avail", "Extension: Availability vs Drop Rate",
       "availability",
       "Portals availability decays slower than GM's: NIC-resident "
       "retransmission costs the host nothing, GM re-staging does",
       availOf);

  report::Figure fig("ext_fault_bw", "Extension: Bandwidth vs Drop Rate",
                     "drop_percent", "bandwidth_MBps");
  fig.paperExpectation(
      "goodput decays monotonically with drop rate on both stacks; "
      "delivery stays exactly-once throughout");
  auto gmBwS = makeParametricSeries("GM", gm, dropOf, bwOf);
  auto ptlBwS = makeParametricSeries("Portals", portals, dropOf, bwOf);

  std::vector<report::ShapeCheck> checks;
  const double slackBw = 0.03 * std::max(gmBwS.ys[0], ptlBwS.ys[0]);
  checks.push_back(report::checkNearlyMonotone(
      "bandwidth non-increasing in drop rate (GM)", gmBwS.ys, false, slackBw));
  checks.push_back(report::checkNearlyMonotone(
      "bandwidth non-increasing in drop rate (Portals)", ptlBwS.ys, false,
      slackBw));

  // NaN (every stream collapsed: nothing measured) fails the range test.
  bool availInRange = true;
  for (const auto* pts : {&gm, &portals})
    for (const auto& p : *pts)
      availInRange = availInRange && p.availability() >= 0.0 &&
                     p.availability() <= 1.0;
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
  const double gmDecay =
      gm[0].availability() > 0
          ? gm.back().availability() / gm[0].availability()
          : 0.0;
  const double ptlDecay =
      portals[0].availability() > 0
          ? portals.back().availability() / portals[0].availability()
          : 0.0;
  checks.push_back(report::ShapeCheck{
      "Portals availability decays slower than GM under loss",
      ptlDecay >= gmDecay,
      strFormat("retained at 10%% drop: Portals %.0f%%, GM %.0f%%",
                100.0 * ptlDecay, 100.0 * gmDecay)});

  const bool bitIdentical = gm == gmSerial;
  checks.push_back(report::ShapeCheck{
      strFormat("bit-identical results for --jobs 1 vs --jobs %d",
                args.opts.jobs),
      bitIdentical, ""});

  fig.addSeries(std::move(gmBwS));
  fig.addSeries(std::move(ptlBwS));
  return finishFigure(fig, checks, args);
}
