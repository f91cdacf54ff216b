// Ablation — the application-offload knob itself.
//
// DESIGN.md decision 3: rendezvous progressed only inside library calls
// (GM) vs autonomously (Portals) is the single mechanism behind the
// paper's offload dichotomy. This ablation holds everything else fixed
// (same fabric, same GM cost model) and compares the PWW wait phase of
// the standard GM against a GM variant whose work phase contains library
// calls at varying density — interpolating between "no offload" and
// "effectively offloaded" and showing the wait phase drain accordingly.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

int main(int argc, char** argv) {
  const FigArgs args =
      parseFigArgs(argc, argv, "ablate_progress_model",
                   "GM PWW wait phase vs in-work progress-call density");
  if (!args.parsedOk) return args.exitCode;

  report::Figure fig(
      "ablate_progress_model",
      "Ablation: GM Wait Phase vs Mid-Work Progress Call Position",
      "test_call_position_fraction", "wait_time_us");
  fig.paperExpectation(
      "one progress call early in a long work phase drains the wait (the "
      "NIC streams during the remaining work); a call near the end leaves "
      "almost the full wait (nothing left to overlap with)");

  // A long work phase: ~8 ms, far beyond the ~1.2 ms exchange time.
  report::Series s{"wait_us", {}, {}};
  for (const double frac : {0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98}) {
    auto base = presets::pwwBase(100_KB);
    base.workInterval = 2'000'000;
    base.testCallAtFraction = frac;
    const auto pt = runPoint(backend::gmMachine(), base);
    s.xs.push_back(frac);
    s.ys.push_back(pt.avgWaitPerMsg * 1e6);
  }
  // Reference: no call at all.
  auto plain = presets::pwwBase(100_KB);
  plain.workInterval = 2'000'000;
  const auto noCall = runPoint(backend::gmMachine(), plain);

  std::vector<report::ShapeCheck> checks;
  checks.push_back(report::ShapeCheck{
      "early call drains the wait phase", s.ys.front() < 100.0,
      strFormat("wait=%.0f us with call at 2%% of work", s.ys.front())});
  checks.push_back(report::ShapeCheck{
      "late call approaches the no-call wait",
      s.ys.back() > 0.5 * noCall.avgWaitPerMsg * 1e6,
      strFormat("wait=%.0f us at 98%% vs %.0f us with no call", s.ys.back(),
                noCall.avgWaitPerMsg * 1e6)});
  checks.push_back(report::checkNearlyMonotone(
      "wait grows as the call moves later", s.ys, /*increasing=*/true,
      30.0));
  fig.addSeries(std::move(s));
  return finishFigure(fig, checks, args);
}
