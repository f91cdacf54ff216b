// Ablation — polling-method queue depth.
//
// Paper §2.1: "The polling method uses a queue of messages at each node
// in order to maximize achievable bandwidth. ... When we set the queue
// size to one ... the polling method acts as a standard ping-pong test
// and maximum sustained bandwidth will be sacrificed."
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(argc, argv, "ablate_queue_depth",
                                    "polling bandwidth vs queue depth");
  if (!args.parsedOk) return args.exitCode;

  report::Figure fig("ablate_queue_depth",
                     "Ablation: Polling Bandwidth vs Queue Depth (100 KB)",
                     "queue_depth", "bandwidth_MBps");
  fig.paperExpectation(
      "depth 1 degenerates to ping-pong (bandwidth sacrificed); a modest "
      "queue recovers the sustained plateau");

  std::vector<report::ShapeCheck> checks;
  for (const auto& machine :
       {backend::gmMachine(), backend::portalsMachine()}) {
    report::Series s;
    s.name = machine.name;
    for (const int q : {1, 2, 4, 8, 16}) {
      auto base = presets::pollingBase(100_KB);
      base.queueDepth = q;
      base.pollInterval = 10'000;
      const auto pt = runPoint(machine, base);
      s.xs.push_back(q);
      s.ys.push_back(toMBps(pt.bandwidthBps));
    }
    checks.push_back(report::ShapeCheck{
        "depth 1 sacrifices bandwidth vs depth 8 (" + s.name + ")",
        s.ys.front() < 0.8 * s.ys[3],
        strFormat("q1=%.1f q8=%.1f MB/s", s.ys.front(), s.ys[3])});
    checks.push_back(report::checkNearlyMonotone(
        "bandwidth non-decreasing in depth (" + s.name + ")", s.ys, true,
        2.0));
    fig.addSeries(std::move(s));
  }
  return finishFigure(fig, checks, args);
}
