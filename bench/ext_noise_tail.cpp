// Extension — OS-noise tail sweep: what background daemons do to the
// per-message latency distribution.
//
// Sweeps the mean daemon burst length at a fixed wakeup period on both
// machine models and plots availability plus the merged receive-latency
// percentiles. Expected shape (see EXPERIMENTS.md): the p999 receive
// latency stretches with the burst length while the median barely moves
// — noise preempts the host mid-progress, so a small fraction of
// messages absorb the whole burst and the rest are untouched. That is
// precisely the signature `comb compare --metric-class tail` gates on:
// a mean-based gate would pass these runs unchanged.
//
// Daemon schedules are a pure function of (seed, node, cpu), so every
// point is bit-reproducible for any --jobs value; the bench verifies
// the tail fields survive that round trip too.
#include "fig_common.hpp"

#include <algorithm>

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

namespace {

PollingParams noisePollingBase() {
  auto p = presets::pollingBase(100_KB);
  p.pollInterval = 30'000;
  p.targetDuration = 20e-3;
  p.maxPolls = 20'000;
  return p;
}

std::vector<RepRun<PollingPoint>> noiseSweep(
    const backend::MachineConfig& machine,
    const std::vector<std::uint64_t>& burstsUs, const host::NoiseSpec& tmpl,
    const FigArgs& args, int jobs) {
  const auto base = noisePollingBase();
  return runSweepParallel(
      machine, burstsUs,
      [&](const backend::MachineConfig& m, const std::uint64_t burstUs) {
        RunOptions opts = args.opts;
        opts.jobs = 1;  // outer sweep already fans out
        host::NoiseSpec spec = tmpl;
        spec.duration = static_cast<double>(burstUs) * 1e-6;
        // burst 0 = the quiet baseline: NoiseSpec{duration: 0} disables
        // the daemon model entirely, so point 0 doubles as the control.
        opts.noise = spec;
        return runPointReps(m, base, opts);
      },
      jobs);
}

}  // namespace

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "ext_noise_tail",
      "receive-latency tail and availability vs OS-noise burst length, "
      "GM vs Portals");
  if (!args.parsedOk) return args.exitCode;

  // Mean daemon burst in microseconds; 0 is the noise-free control.
  const std::vector<std::uint64_t> burstsUs{0, 2, 5, 10, 20};
  // --noise supplies the non-swept knobs (period, daemons, jitter,
  // coalesce, seed); the burst length itself is the swept axis.
  host::NoiseSpec tmpl;
  tmpl.period = 250e-6;
  tmpl.daemons = 2;
  if (args.opts.noise) tmpl = *args.opts.noise;

  const auto gmReps =
      noiseSweep(backend::gmMachine(), burstsUs, tmpl, args, args.opts.jobs);
  const auto ptlReps = noiseSweep(backend::portalsMachine(), burstsUs, tmpl,
                                  args, args.opts.jobs);
  // Re-run one sweep serially: a parallel schedule must not change bits —
  // including the latency-distribution fields.
  const auto gmSerial =
      noiseSweep(backend::gmMachine(), burstsUs, tmpl, args, 1);

  const auto gm = canonicalPoints(gmReps);
  const auto portals = canonicalPoints(ptlReps);

  const auto availOf = [](const PollingPoint& p) { return p.availability; };
  const auto p50Of = [](const PollingPoint& p) { return p.recvTail.p50 * 1e6; };
  const auto p999Of = [](const PollingPoint& p) {
    return p.recvTail.p999 * 1e6;
  };

  report::Figure availFig("ext_noise_avail",
                          "Extension: Availability vs OS-Noise Burst",
                          "noise_burst_us", "availability");
  availFig.paperExpectation(
      "availability barely moves: bursts preempt the compute loop and "
      "the progress loop alike, so the live fraction holds while the "
      "latency tail (below) stretches — noise hides from mean-based "
      "metrics");
  availFig.addSeries(makeSeries("GM", burstsUs, gm, availOf));
  availFig.addSeries(makeSeries("Portals", burstsUs, portals, availOf));
  availFig.render(std::cout);
  if (args.csv)
    std::cout << "csv: " << availFig.writeCsvFile(args.outDir) << '\n';

  report::Figure fig("ext_noise_tail",
                     "Extension: Receive-Latency Tail vs OS-Noise Burst",
                     "noise_burst_us", "recv_latency_us");
  fig.paperExpectation(
      "p999 receive latency stretches with the daemon burst while the "
      "median stays near the quiet baseline: noise is a tail "
      "phenomenon, invisible to mean-based gating");
  auto gmP50 = makeSeries("GM p50", burstsUs, gm, p50Of);
  auto gmP999 = makeSeries("GM p999", burstsUs, gm, p999Of);
  auto ptlP50 = makeSeries("Portals p50", burstsUs, portals, p50Of);
  auto ptlP999 = makeSeries("Portals p999", burstsUs, portals, p999Of);

  std::vector<report::ShapeCheck> checks;

  bool availInRange = true, tailsPopulated = true;
  for (const auto* pts : {&gm, &portals})
    for (const auto& p : *pts) {
      availInRange =
          availInRange && p.availability >= 0.0 && p.availability <= 1.0;
      tailsPopulated = tailsPopulated && p.recvTail.count > 0 &&
                       p.sendTail.count > 0;
    }
  checks.push_back(
      report::ShapeCheck{"availability within [0, 1]", availInRange, ""});
  checks.push_back(report::ShapeCheck{
      "every point recorded send and recv latency samples", tailsPopulated,
      ""});

  // The headline shape: the noisiest point's p999 sits above the quiet
  // baseline's on both stacks.
  const bool p999Grows =
      gmP999.ys.back() > gmP999.ys.front() &&
      ptlP999.ys.back() > ptlP999.ys.front();
  checks.push_back(report::ShapeCheck{
      "p999 recv latency grows with noise burst on both stacks", p999Grows,
      strFormat("GM %.1f -> %.1f us, Portals %.1f -> %.1f us",
                gmP999.ys.front(), gmP999.ys.back(), ptlP999.ys.front(),
                ptlP999.ys.back())});

  // Tail-dominance: the absolute p999 stretch exceeds the median's on
  // both stacks — the distribution widened, it did not shift.
  const double gmTailStretch = gmP999.ys.back() - gmP999.ys.front();
  const double gmMedStretch = std::abs(gmP50.ys.back() - gmP50.ys.front());
  const double ptlTailStretch = ptlP999.ys.back() - ptlP999.ys.front();
  const double ptlMedStretch = std::abs(ptlP50.ys.back() - ptlP50.ys.front());
  checks.push_back(report::ShapeCheck{
      "tail stretches more than the median under noise",
      gmTailStretch >= gmMedStretch && ptlTailStretch >= ptlMedStretch,
      strFormat("GM tail +%.1f us vs median %+.1f us; "
                "Portals tail +%.1f us vs median %+.1f us",
                gmTailStretch, gmP50.ys.back() - gmP50.ys.front(),
                ptlTailStretch, ptlP50.ys.back() - ptlP50.ys.front())});

  bool bitIdentical = gmSerial.size() == gmReps.size();
  for (std::size_t i = 0; bitIdentical && i < gmReps.size(); ++i)
    bitIdentical = gmReps[i].canonical() == gmSerial[i].canonical();
  checks.push_back(report::ShapeCheck{
      strFormat("bit-identical results (incl. tails) for --jobs 1 vs "
                "--jobs %d",
                args.opts.jobs),
      bitIdentical, ""});

  FigArchive archive("ext_noise_tail", args);
  archive.add("noise/gm", backend::gmMachine(), burstsUs, gmReps,
              "noise_burst_us");
  archive.add("noise/portals", backend::portalsMachine(), burstsUs, ptlReps,
              "noise_burst_us");
  archive.write();

  fig.addSeries(std::move(gmP50));
  fig.addSeries(std::move(gmP999));
  fig.addSeries(std::move(ptlP50));
  fig.addSeries(std::move(ptlP999));
  return finishFigure(fig, checks, args);
}
