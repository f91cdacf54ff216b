// Extension — overlap-taxonomy sweep: who makes progress when the host
// does not poll?
//
// Generalizes fig17's MPI_Test-injection experiment across the four
// progress models ({gm, portals, progress_thread, rdma}, plus the
// oversubscribed progress-thread placement) × message size ×
// work-per-poll, reporting availability, bandwidth and the recv-latency
// percentiles. Expected shape (see docs/progress_models.md):
//
//  * GM only progresses inside library calls, so its availability dips
//    in the mid-interval band where polls keep finding unfinished
//    messages and the host pays the progress loop itself.
//  * The progress thread recovers that availability: a dedicated engine
//    core polls the NIC, so host polls find completed messages. The
//    oversubscribed placement recovers it too but pays a bandwidth tax —
//    the engine steals worker cycles instead of its own core.
//  * RDMA dominates availability AND the recv tail: matching and
//    rendezvous are NIC-resident, no host cycle is ever charged and no
//    message waits for a wakeup.
//  * Portals trades availability for autonomy: per-fragment kernel
//    interrupts inflate host work (low availability) even though the
//    protocol itself never waits on the host.
//
// Every point is bit-reproducible for any --jobs value; the bench
// verifies the latency-distribution fields survive that round trip too.
#include "fig_common.hpp"

#include <algorithm>

using namespace comb;
using namespace comb::bench;
using namespace comb::units;

namespace {

struct StackSweep {
  std::string label;
  backend::MachineConfig machine;
  std::vector<RepRun<PollingPoint>> reps;
  std::vector<PollingPoint> points;
};

std::vector<RepRun<PollingPoint>> progressSweep(
    const backend::MachineConfig& machine, Bytes msgBytes,
    const std::vector<std::uint64_t>& intervals, const FigArgs& args,
    int jobs) {
  RunOptions opts = args.opts;
  opts.jobs = jobs;
  return runSweepReps(
      machine, sweepOver(presets::pollingBase(msgBytes), intervals), opts);
}

double minAvail(const std::vector<PollingPoint>& pts) {
  double v = 1.0;
  for (const auto& p : pts) v = std::min(v, p.availability);
  return v;
}

double peakBw(const std::vector<PollingPoint>& pts) {
  double v = 0.0;
  for (const auto& p : pts) v = std::max(v, toMBps(p.bandwidthBps));
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  const FigArgs args = parseFigArgs(
      argc, argv, "ext_progress_sweep",
      "availability/bandwidth/recv-tail vs work-per-poll across the "
      "progress-model taxonomy: gm, portals, progress_thread (dedicated "
      "and oversubscribed), rdma");
  if (!args.parsedOk) return args.exitCode;

  const auto intervals = presets::pollSweep(args.pointsPerDecade);
  const Bytes headlineSize = 100_KB;
  // Second size for the archive gate: small enough to stay eager on
  // every stack, so the gate also covers the non-rendezvous paths.
  const Bytes eagerSize = 10_KB;

  std::vector<StackSweep> stacks;
  stacks.push_back({"GM", backend::gmMachine(), {}, {}});
  stacks.push_back({"Portals", backend::portalsMachine(), {}, {}});
  stacks.push_back({"ProgressThread", backend::progressThreadMachine(), {}, {}});
  stacks.push_back({"ProgressOversub", backend::progressOversubMachine(), {}, {}});
  stacks.push_back({"RDMA", backend::rdmaMachine(), {}, {}});

  for (auto& s : stacks) {
    s.reps = progressSweep(s.machine, headlineSize, intervals, args,
                           args.opts.jobs);
    s.points = canonicalPoints(s.reps);
  }
  const auto& gm = stacks[0].points;
  const auto& portals = stacks[1].points;
  const auto& pt = stacks[2].points;
  const auto& ptOver = stacks[3].points;
  const auto& rdma = stacks[4].points;

  // Re-run one sweep serially: a parallel schedule must not change bits —
  // including the latency-distribution fields.
  const auto ptSerial = progressSweep(stacks[2].machine, headlineSize,
                                      intervals, args, 1);

  const auto availOf = [](const PollingPoint& p) { return p.availability; };
  const auto bwOf = [](const PollingPoint& p) {
    return toMBps(p.bandwidthBps);
  };
  const auto p999Of = [](const PollingPoint& p) {
    return p.recvTail.p999 * 1e6;
  };

  report::Figure availFig(
      "ext_progress_avail",
      "Extension: Availability vs Work-per-Poll, by Progress Model",
      "work_iters_per_poll", "availability");
  availFig.paperExpectation(
      "GM availability dips where polls keep finding unfinished messages "
      "(the host pays the progress loop); the progress thread and RDMA "
      "hold availability across the whole band; Portals sits lowest — "
      "per-fragment interrupts inflate host work at every interval");
  report::Figure bwFig(
      "ext_progress_bw",
      "Extension: Bandwidth vs Work-per-Poll, by Progress Model",
      "work_iters_per_poll", "bandwidth_MBps");
  bwFig.paperExpectation(
      "all stacks lose bandwidth once polls are too sparse to recycle "
      "receive tokens; the oversubscribed progress thread pays an extra "
      "bandwidth tax over the dedicated placement (the engine steals "
      "worker cycles)");
  report::Figure tailFig(
      "ext_progress_tail",
      "Extension: Recv-Latency p999 vs Work-per-Poll, by Progress Model",
      "work_iters_per_poll", "recv_p999_us");
  tailFig.paperExpectation(
      "RDMA's hardware matching keeps the recv p999 at the wire floor; "
      "host-driven stacks stretch the tail with the poll interval because "
      "a message's completion waits for the next library call");

  for (const auto& s : stacks) {
    availFig.addSeries(makeSeries(s.label, intervals, s.points, availOf));
    bwFig.addSeries(makeSeries(s.label, intervals, s.points, bwOf));
    tailFig.addSeries(makeSeries(s.label, intervals, s.points, p999Of));
  }

  availFig.render(std::cout);
  if (args.csv)
    std::cout << "csv: " << availFig.writeCsvFile(args.outDir) << '\n';
  bwFig.render(std::cout);
  if (args.csv)
    std::cout << "csv: " << bwFig.writeCsvFile(args.outDir) << '\n';

  std::vector<report::ShapeCheck> checks;

  bool availInRange = true, tailsPopulated = true;
  for (const auto& s : stacks)
    for (const auto& p : s.points) {
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

  // The tentpole shape: the dedicated progress thread recovers GM's lost
  // availability — its worst point over the sweep sits at or above GM's.
  const double gmFloor = minAvail(gm);
  const double ptFloor = minAvail(pt);
  const double ptOverFloor = minAvail(ptOver);
  const double rdmaFloor = minAvail(rdma);
  checks.push_back(report::ShapeCheck{
      "progress thread recovers GM's lost availability (worst-point "
      "availability >= GM's)",
      ptFloor >= gmFloor,
      strFormat("GM floor %.3f, progress_thread floor %.3f", gmFloor,
                ptFloor)});
  checks.push_back(report::ShapeCheck{
      "oversubscribed placement also recovers availability",
      ptOverFloor >= gmFloor,
      strFormat("GM floor %.3f, oversubscribed floor %.3f", gmFloor,
                ptOverFloor)});

  // ...at a bandwidth cost when oversubscribed: the engine steals worker
  // cycles, so the oversubscribed peak sits below the dedicated peak.
  const double ptPeak = peakBw(pt);
  const double ptOverPeak = peakBw(ptOver);
  checks.push_back(report::ShapeCheck{
      "oversubscription costs bandwidth vs the dedicated placement",
      ptOverPeak <= ptPeak,
      strFormat("dedicated peak %.2f MB/s, oversubscribed peak %.2f MB/s",
                ptPeak, ptOverPeak)});

  // The fig17 generalization: where GM's polls are too sparse to drive
  // the protocol (1e6 work iterations between library calls), the
  // autonomous stacks keep streaming — their bandwidth clearly exceeds
  // GM's at the same interval.
  std::size_t sparse = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i)
    if (std::llabs(static_cast<long long>(intervals[i]) - 1'000'000) <
        std::llabs(static_cast<long long>(intervals[sparse]) - 1'000'000))
      sparse = i;
  const double gmSparseBw = toMBps(gm[sparse].bandwidthBps);
  const double ptSparseBw = toMBps(pt[sparse].bandwidthBps);
  const double rdmaSparseBw = toMBps(rdma[sparse].bandwidthBps);
  checks.push_back(report::ShapeCheck{
      "autonomous stacks sustain bandwidth at sparse polling (1.2x GM at "
      "~1e6 iters/poll)",
      ptSparseBw >= 1.2 * gmSparseBw && rdmaSparseBw >= 1.2 * gmSparseBw,
      strFormat("at %llu iters/poll: gm %.2f, progress_thread %.2f, rdma "
                "%.2f MB/s",
                static_cast<unsigned long long>(intervals[sparse]),
                gmSparseBw, ptSparseBw, rdmaSparseBw)});

  // RDMA dominates availability: its worst point beats every other
  // stack's worst point.
  const bool rdmaAvailDominates = rdmaFloor >= gmFloor &&
                                  rdmaFloor >= ptFloor &&
                                  rdmaFloor >= ptOverFloor &&
                                  rdmaFloor >= minAvail(portals);
  checks.push_back(report::ShapeCheck{
      "RDMA dominates availability (highest worst-point availability)",
      rdmaAvailDominates,
      strFormat("floors: rdma %.3f, progress_thread %.3f, gm %.3f, "
                "portals %.3f",
                rdmaFloor, ptFloor, gmFloor, minAvail(portals))});

  // ...and the recv tail: hardware matching never waits for a host poll
  // or an engine wakeup, so its worst p999 over the sweep is the lowest.
  const auto worstP999 = [&](const std::vector<PollingPoint>& pts) {
    double v = 0.0;
    for (const auto& p : pts) v = std::max(v, p.recvTail.p999 * 1e6);
    return v;
  };
  const bool rdmaTailDominates =
      worstP999(rdma) <= worstP999(gm) && worstP999(rdma) <= worstP999(pt) &&
      worstP999(rdma) <= worstP999(ptOver) &&
      worstP999(rdma) <= worstP999(portals);
  checks.push_back(report::ShapeCheck{
      "RDMA dominates the recv tail (lowest worst-case p999)",
      rdmaTailDominates,
      strFormat("worst p999: rdma %.1f us, progress_thread %.1f us, gm "
                "%.1f us, portals %.1f us",
                worstP999(rdma), worstP999(pt), worstP999(gm),
                worstP999(portals))});

  bool bitIdentical = ptSerial.size() == stacks[2].reps.size();
  for (std::size_t i = 0; bitIdentical && i < ptSerial.size(); ++i)
    bitIdentical =
        stacks[2].reps[i].canonical() == ptSerial[i].canonical();
  checks.push_back(report::ShapeCheck{
      strFormat("bit-identical results (incl. tails) for --jobs 1 vs "
                "--jobs %d",
                args.opts.jobs),
      bitIdentical, ""});

  FigArchive archive("ext_progress_sweep", args);
  for (auto& s : stacks) {
    archive.add("progress/" + s.label + "/" + sizeLabel(headlineSize),
                s.machine, intervals, s.reps);
    // The eager-size family only feeds the archive gate (no figure): it
    // covers the non-rendezvous protocol paths on every stack.
    if (archive.enabled())
      archive.add("progress/" + s.label + "/" + sizeLabel(eagerSize),
                  s.machine, intervals,
                  progressSweep(s.machine, eagerSize, intervals, args,
                                args.opts.jobs));
  }
  archive.write();

  return finishFigure(tailFig, checks, args);
}
