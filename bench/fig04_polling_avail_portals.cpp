// Figure 4 — Polling method: CPU availability vs poll interval, Portals.
//
// Paper: availability "remains low and relatively stable until it rises
// steeply" — frequent polling keeps the interrupt-driven kernel stack hot
// (availability ~0.1); once polls are sparse enough to stall the message
// flow, interrupts stop and availability climbs toward 1.
#include "fig_common.hpp"

using namespace comb;
using namespace comb::bench;

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "fig04",
      "Polling method: CPU availability vs poll interval (Portals)");
  if (!args.parsedOk) return args.exitCode;

  const auto machine = backend::portalsMachine();
  const auto fam =
      runFamily(machine, presets::pollingBase, presets::paperMessageSizes(),
                presets::pollSweep(args.pointsPerDecade), args.opts);

  report::Figure fig("fig04",
                     "Polling Method: CPU Availability (Portals)",
                     "poll_interval_iters", "cpu_availability");
  fig.logX().yRange(0.0, 1.0).paperExpectation(
      "low stable availability (~0.05-0.2) while messages flow, then a "
      "steep rise toward 1 once the poll interval stalls the flow");

  std::vector<report::ShapeCheck> checks;
  for (std::size_t i = 0; i < fam.sizes.size(); ++i) {
    auto s = makeSeries(sizeLabel(fam.sizes[i]), fam.xs,
                        fam.results[i],
                        [](const PollingPoint& p) { return p.availability; });
    checks.push_back(report::checkRisesFromLowToHigh(
        "availability rises low->high (" + s.name + ")", s.ys, 0.25, 0.9));
    checks.push_back(report::checkNearlyMonotone(
        "availability ~monotone in poll interval (" + s.name + ")", s.ys,
        /*increasing=*/true, 0.08));
    fig.addSeries(std::move(s));
  }

  FigArchive archive("fig04_polling_avail_portals", args);
  archive.add("polling/portals", machine, fam);
  archive.write();

  // --trace: re-run the middle sweep point (100KB family) fully traced.
  auto traced = presets::pollingBase(presets::paperMessageSizes().back());
  traced.pollInterval = fam.xs[fam.xs.size() / 2];
  const bool traceOk = maybeTrace(machine, traced, args);

  const int rc = finishFigure(fig, checks, args);
  return traceOk ? rc : std::max(rc, 1);
}
