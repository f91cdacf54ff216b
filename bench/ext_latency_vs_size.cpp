// Extension — classic ping-pong latency/bandwidth microbenchmark.
//
// The paper's motivation (§1): conventional microbenchmarks show GM
// beating Portals on latency and bandwidth, but say nothing about
// overlap. Run next to the COMB figures, this is the "before" picture.
#include "fig_common.hpp"

#include "comb/latency.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(argc, argv, "ext_latency",
                                    "ping-pong latency vs message size");
  if (!args.parsedOk) return args.exitCode;

  const std::vector<Bytes> sizes{64, 1_KB, 4_KB, 10_KB, 50_KB, 100_KB,
                                 300_KB};
  SweepSpec<LatencyParams> spec;
  spec.base.reps = 30;
  spec.values = sizes;
  const auto gmRuns =
      runSweepReps(backend::gmMachine(), spec, args.opts);
  const auto portalsRuns =
      runSweepReps(backend::portalsMachine(), spec, args.opts);
  const auto gm = canonicalPoints(gmRuns);
  const auto portals = canonicalPoints(portalsRuns);

  report::Figure fig("ext_latency", "Extension: Ping-Pong Latency vs Size",
                     "message_bytes", "half_round_trip_us");
  fig.logX().paperExpectation(
      "GM under Portals at every size (no syscalls, no kernel copies); "
      "both grow linearly once serialization dominates");

  report::Series gmS{"GM", {}, {}}, ptlS{"Portals", {}, {}};
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    gmS.xs.push_back(static_cast<double>(sizes[i]));
    gmS.ys.push_back(gm[i].halfRoundTripAvg * 1e6);
    ptlS.xs.push_back(static_cast<double>(sizes[i]));
    ptlS.ys.push_back(portals[i].halfRoundTripAvg * 1e6);
  }

  std::vector<report::ShapeCheck> checks;
  bool gmAlwaysFaster = true;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    gmAlwaysFaster = gmAlwaysFaster && gmS.ys[i] < ptlS.ys[i];
  checks.push_back(report::ShapeCheck{
      "GM latency below Portals at every size", gmAlwaysFaster,
      strFormat("64B: %.1f vs %.1f us; 300KB: %.0f vs %.0f us", gmS.ys[0],
                ptlS.ys[0], gmS.ys.back(), ptlS.ys.back())});
  checks.push_back(report::checkNearlyMonotone(
      "latency grows with size (GM)", gmS.ys, true, 1.0));
  checks.push_back(report::checkNearlyMonotone(
      "latency grows with size (Portals)", ptlS.ys, true, 1.0));
  // Large-message ping-pong bandwidth approaches the polling plateau.
  const double gmBw300 = toMBps(gm.back().bandwidthBps);
  checks.push_back(report::ShapeCheck{
      "GM 300 KB ping-pong bandwidth near the plateau",
      gmBw300 > 70.0 && gmBw300 < 95.0, strFormat("%.1f MB/s", gmBw300)});
  fig.addSeries(std::move(gmS));
  fig.addSeries(std::move(ptlS));
  FigArchive archive("ext_latency_vs_size", args);
  archive.add("latency/gm", backend::gmMachine(), sizes, gmRuns);
  archive.add("latency/portals", backend::portalsMachine(), sizes,
              portalsRuns);
  archive.write();
  return finishFigure(fig, checks, args);
}
