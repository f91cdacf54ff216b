// The paper bench (bench/paper): COMB's Figs 4-17 as rows of one table.
//
// A row names the sweeps its figure reads, each as (archive id, machine,
// SweepSpec), and turns their canonical points into the figure's series
// and shape checks. Every sweep of every selected row goes through one
// PointMemo, so a point that several figures plot (Figs 4 and 5 plot the
// same runs, Figs 9-11 the same 100 KB PWW sweeps) is simulated once.
// Adding a figure is adding a row. The idiom is mpptest's pair.c: one
// table of test routines behind one harness.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "fig_common.hpp"
#include "point_memo.hpp"

namespace comb::bench::paper {

using Checks = std::vector<report::ShapeCheck>;

/// What a row's plot reads of one of its sweeps: the swept values, the
/// message size and the canonical (rep-0) points.
struct SweepPoints {
  std::vector<std::uint64_t> xs;
  Bytes msgBytes = 0;
  std::variant<std::vector<PollingPoint>, std::vector<PwwPoint>> points;

  template <typename Point>
  const std::vector<Point>& as() const {
    return std::get<std::vector<Point>>(points);
  }
};
using In = std::vector<SweepPoints>;

struct FigureRow {
  const char* id;     ///< CSV stem and --figure value, e.g. "fig04"
  const char* bench;  ///< archive name, e.g. "fig04_polling_avail_portals"
  const char* title;
  const char* xlabel;
  const char* ylabel;
  const char* expectation;  ///< what the paper's version of the figure shows
  bool logX = false;
  bool shareY = false;  ///< y is a share: plot it on [0, 1]
  std::vector<Sweep> (*sweeps)(int pointsPerDecade) = nullptr;
  /// Series and shape checks, from the sweeps' points in `sweeps` order.
  void (*plot)(const In& in, report::Figure& fig, Checks& checks) = nullptr;
  /// --trace re-runs the middle point of this sweep (an index into
  /// `sweeps`) fully traced; -1 when the figure has no traced point.
  int tracedSweep = -1;
};

/// The four paper-size sweeps of one method on one machine, archived as
/// `<idPrefix>/<size>` (Figs 4-7, 14, 15).
template <typename Param>
std::vector<Sweep> family(const std::string& idPrefix,
                          const backend::MachineConfig& machine,
                          Param (*base)(Bytes),
                          const std::vector<std::uint64_t>& xs) {
  std::vector<Sweep> sweeps;
  for (const Bytes size : presets::paperMessageSizes())
    sweeps.push_back({idPrefix + "/" + sizeLabel(size), machine,
                      sweepOver(base(size), xs)});
  return sweeps;
}

inline std::vector<Sweep> portalsPolling(int ppd) {
  return family("polling/portals", backend::portalsMachine(),
                presets::pollingBase, presets::pollSweep(ppd));
}

inline std::vector<Sweep> portalsPww(int ppd) {
  return family("pww/portals", backend::portalsMachine(), presets::pwwBase,
                presets::workSweep(ppd));
}

/// The 100 KB PWW sweep on GM, then on Portals (Figs 9-11).
inline std::vector<Sweep> pwwGmVsPortals(int ppd) {
  using namespace comb::units;
  const auto spec =
      sweepOver(presets::pwwBase(100_KB), presets::workSweep(ppd));
  return {{"pww/gm/100 KB", backend::gmMachine(), spec},
          {"pww/portals/100 KB", backend::portalsMachine(), spec}};
}

/// The 100 KB PWW sweep of one machine on a linear work-interval axis
/// (Figs 12-13).
inline std::vector<Sweep> linearPww(const std::string& id,
                                    const backend::MachineConfig& machine) {
  using namespace comb::units;
  std::vector<std::uint64_t> xs;
  for (std::uint64_t v = 50'000; v <= 500'000; v += 50'000) xs.push_back(v);
  return {{id, machine, sweepOver(presets::pwwBase(100_KB), xs)}};
}

/// GM's 100 KB polling and PWW sweeps, one point per decade more than
/// the other figures (Figs 16-17).
inline std::vector<Sweep> gmPollAndPww(int ppd) {
  using namespace comb::units;
  const auto poll = presets::pollSweep(ppd + 1);
  const auto work = presets::workSweep(ppd + 1);
  return {{"polling/gm/100 KB", backend::gmMachine(),
           sweepOver(presets::pollingBase(100_KB), poll)},
          {"pww/gm/100 KB", backend::gmMachine(),
           sweepOver(presets::pwwBase(100_KB), work)}};
}

inline constexpr auto availOf = [](const auto& p) { return p.availability; };
inline constexpr auto bwOf = [](const auto& p) {
  return toMBps(p.bandwidthBps);
};

inline double peakOf(const std::vector<double>& ys) {
  return *std::max_element(ys.begin(), ys.end());
}

/// One series per sweep, named by its message size (Figs 4-7).
template <typename Point, typename F>
report::Series bySize(const SweepPoints& sw, F&& yOf) {
  return makeSeries(sizeLabel(sw.msgBytes), sw.xs, sw.as<Point>(), yOf);
}

/// The GM and Portals series of a GM-vs-Portals pair of sweeps (Figs 8-11).
template <typename Point, typename F>
std::pair<report::Series, report::Series> gmAndPortals(const In& in, F&& yOf) {
  return {makeSeries("GM", in[0].xs, in[0].as<Point>(), yOf),
          makeSeries("Portals", in[1].xs, in[1].as<Point>(), yOf)};
}

/// Bandwidth against availability (Figs 14-17).
template <typename Point>
report::Series bwVsAvail(const std::string& name,
                         const std::vector<Point>& points) {
  return makeParametricSeries(name, points, availOf, bwOf);
}

/// Work phase with and without messaging (Figs 12-13).
inline std::pair<report::Series, report::Series> workWithAndWithoutMh(
    const In& in) {
  const auto& pts = in[0].as<PwwPoint>();
  return {makeSeries("Work with MH", in[0].xs, pts,
                     [](const PwwPoint& p) { return p.avgWork * 1e6; }),
          makeSeries("Work Only", in[0].xs, pts,
                     [](const PwwPoint& p) { return p.dryWork * 1e6; })};
}

/// The table: Figs 4-17 in paper order.
inline const std::vector<FigureRow>& figureRows() {
  using namespace comb::units;
  static const std::vector<FigureRow> rows = {
      // Paper: availability "remains low and relatively stable until it
      // rises steeply" — frequent polling keeps the interrupt-driven
      // kernel stack hot (availability ~0.1); once polls are sparse enough
      // to stall the message flow, interrupts stop and availability climbs
      // toward 1.
      {.id = "fig04", .bench = "fig04_polling_avail_portals",
       .title = "Polling Method: CPU Availability (Portals)",
       .xlabel = "poll_interval_iters", .ylabel = "cpu_availability",
       .expectation =
           "low stable availability (~0.05-0.2) while messages flow, then a "
           "steep rise toward 1 once the poll interval stalls the flow",
       .logX = true, .shareY = true,
       .sweeps = portalsPolling,
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         for (const auto& sw : in) {
           auto s = bySize<PollingPoint>(sw, availOf);
           checks.push_back(report::checkRisesFromLowToHigh(
               "availability rises low->high (" + s.name + ")", s.ys, 0.25,
               0.9));
           checks.push_back(report::checkNearlyMonotone(
               "availability ~monotone in poll interval (" + s.name + ")",
               s.ys, /*increasing=*/true, 0.08));
           fig.addSeries(std::move(s));
         }
       },
       .tracedSweep = 3},  // the 300 KB sweep

      // Paper: a plateau of maximum sustained bandwidth followed by a steep
      // decline once the poll interval is long enough that every in-flight
      // message completes inside it and flow stalls until the next poll.
      {.id = "fig05", .bench = "fig05_polling_bw_portals",
       .title = "Polling Method: Bandwidth (Portals)",
       .xlabel = "poll_interval_iters", .ylabel = "bandwidth_MBps",
       .expectation =
           "plateau at max sustained bandwidth (~50-60 MB/s for >=50 KB, "
           "lower for 10 KB), then steep decline at large poll intervals; "
           "larger messages hold the plateau longer",
       .logX = true,
       .sweeps = portalsPolling,
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         std::vector<double> peak50KBplus;
         for (const auto& sw : in) {
           auto s = bySize<PollingPoint>(sw, bwOf);
           checks.push_back(report::checkPlateauThenDecline(
               "bandwidth plateau then decline (" + s.name + ")", s.ys, 0.2,
               0.5));
           if (sw.msgBytes >= 50 * 1024) peak50KBplus.push_back(peakOf(s.ys));
           fig.addSeries(std::move(s));
         }
         // Portals plateau sits in the paper's 45-65 MB/s band for >= 50 KB.
         for (const double pk : peak50KBplus)
           checks.push_back({"plateau in paper band (45-65 MB/s)",
                             pk >= 45.0 && pk <= 65.0,
                             strFormat("peak=%.1f MB/s", pk)});
       }},

      // Paper: unlike the polling graph (Fig 4) there is NO initial plateau
      // — PWW waits for the batch regardless, so short work intervals are
      // dominated by post+wait time and availability starts near zero,
      // rising steadily as the work interval grows.
      {.id = "fig06", .bench = "fig06_pww_avail_portals",
       .title = "PWW Method: CPU Availability (Portals)",
       .xlabel = "work_interval_iters", .ylabel = "cpu_availability",
       .expectation =
           "no low plateau (PWW waits regardless): availability starts near 0 "
           "at short work intervals and rises steadily toward 1",
       .logX = true, .shareY = true,
       .sweeps = portalsPww,
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         for (const auto& sw : in) {
           auto s = bySize<PwwPoint>(sw, availOf);
           checks.push_back(report::checkRisesFromLowToHigh(
               "availability rises low->high (" + s.name + ")", s.ys, 0.30,
               0.85));
           checks.push_back(report::checkNearlyMonotone(
               "availability ~monotone in work interval (" + s.name + ")",
               s.ys, /*increasing=*/true, 0.08));
           fig.addSeries(std::move(s));
         }
       }},

      // Paper: compared with the polling method's bandwidth (Fig 5), the
      // decline with growing work interval is more gradual — PWW cannot
      // hold the peak plateau as long because each cycle serializes
      // post/work/wait.
      {.id = "fig07", .bench = "fig07_pww_bw_portals",
       .title = "PWW Method: Bandwidth (Portals)",
       .xlabel = "work_interval_iters", .ylabel = "bandwidth_MBps",
       .expectation =
           "bandwidth declines gradually as the work interval grows; larger "
           "messages sustain more bandwidth at every interval",
       .logX = true,
       .sweeps = portalsPww,
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         for (const auto& sw : in) {
           auto s = bySize<PwwPoint>(sw, bwOf);
           checks.push_back(report::checkEndsBelow(
               "bandwidth falls off at long work intervals (" + s.name + ")",
               s.ys, 0.25 * peakOf(s.ys)));
           fig.addSeries(std::move(s));
         }
         // Ordering: at the shortest work interval, larger message => more
         // bandwidth (paper's series never cross at the left edge).
         const auto& s = fig.series();
         for (std::size_t i = 1; i < s.size(); ++i)
           checks.push_back(
               {"larger message >= smaller at left edge (" + s[i].name + ")",
                s[i].ys.front() >= s[i - 1].ys.front(),
                strFormat("%.1f vs %.1f MB/s", s[i].ys.front(),
                          s[i - 1].ys.front())});
       }},

      // Paper: GM (OS-bypass, no interrupts, no kernel copies) sustains
      // ~88 MB/s; kernel-based Portals is capped near ~55 MB/s by
      // per-packet interrupts and kernel-buffer copies on the same
      // hardware.
      {.id = "fig08", .bench = "fig08_polling_bw_gm_vs_portals",
       .title = "Polling Method: Bandwidth, GM vs Portals",
       .xlabel = "poll_interval_iters", .ylabel = "bandwidth_MBps",
       .expectation =
           "GM plateau ~88 MB/s, Portals ~50-60 MB/s; GM wins ~1.5-1.8x at the "
           "plateau; both decline at large poll intervals",
       .logX = true,
       .sweeps = [](int ppd) {
         const auto spec =
             sweepOver(presets::pollingBase(100_KB), presets::pollSweep(ppd));
         return std::vector<Sweep>{
             {"polling/gm/100 KB", backend::gmMachine(), spec},
             {"polling/portals/100 KB", backend::portalsMachine(), spec}};
       },
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         auto [gm, ptl] = gmAndPortals<PollingPoint>(in, bwOf);
         checks.push_back(report::checkPeakRatio(
             "GM beats Portals by ~1.4-1.9x", gm.ys, ptl.ys, 1.3, 2.0));
         checks.push_back(report::checkPlateauThenDecline(
             "GM plateau then decline", gm.ys, 0.2, 0.5));
         checks.push_back(report::checkPlateauThenDecline(
             "Portals plateau then decline", ptl.ys, 0.2, 0.5));
         const double gmPeak = peakOf(gm.ys);
         checks.push_back({"GM peak in paper band (80-95 MB/s)",
                           gmPeak >= 80.0 && gmPeak <= 95.0,
                           strFormat("peak=%.1f MB/s", gmPeak)});
         fig.addSeries(std::move(gm));
         fig.addSeries(std::move(ptl));
       }},

      // Paper: "the performance of GM [is] significantly better than
      // Portals for smaller work intervals"; both decay as the work
      // interval dominates the cycle.
      {.id = "fig09", .bench = "fig09_pww_bw_gm_vs_portals",
       .title = "PWW Method: Bandwidth, GM vs Portals",
       .xlabel = "work_interval_iters", .ylabel = "bandwidth_MBps",
       .expectation =
           "GM well above Portals at small work intervals; both decline as the "
           "work interval dominates the cycle",
       .logX = true,
       .sweeps = pwwGmVsPortals,
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         auto [gm, ptl] = gmAndPortals<PwwPoint>(in, bwOf);
         checks.push_back({"GM > Portals at the smallest work interval",
                           gm.ys.front() > 1.2 * ptl.ys.front(),
                           strFormat("GM=%.1f Portals=%.1f MB/s",
                                     gm.ys.front(), ptl.ys.front())});
         checks.push_back(report::checkEndsBelow(
             "GM decays at long work intervals", gm.ys, 0.25 * gm.ys.front()));
         checks.push_back(report::checkEndsBelow(
             "Portals decays at long work intervals", ptl.ys,
             0.25 * peakOf(ptl.ys)));
         fig.addSeries(std::move(gm));
         fig.addSeries(std::move(ptl));
       }},

      // Paper: GM posts a rendezvous descriptor in a few microseconds; a
      // Portals post is a syscall plus kernel match-entry setup (plus
      // interrupt interference while traffic flows) — roughly 160-180 us.
      // "GM significantly outperforms Portals."
      {.id = "fig10", .bench = "fig10_pww_post_time",
       .title = "PWW Method: Average Post Time (100 KB)",
       .xlabel = "work_interval_iters", .ylabel = "time_to_post_us",
       .expectation =
           "Portals ~160-180 us per post (syscall + kernel setup), GM a few us "
           "(descriptor write); both roughly flat across work intervals",
       .logX = true,
       .sweeps = pwwGmVsPortals,
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         auto [gm, ptl] = gmAndPortals<PwwPoint>(
             in, [](const PwwPoint& p) { return p.avgPostPerOp * 1e6; });
         checks.push_back(report::checkPeakRatio(
             "Portals posts cost >=10x GM posts", ptl.ys, gm.ys, 10.0));
         checks.push_back({"GM post cost is a few microseconds",
                           gm.ys.front() > 1.0 && gm.ys.front() < 20.0,
                           strFormat("GM=%.1f us", gm.ys.front())});
         checks.push_back({"Portals post cost in paper's order (~100-400 us)",
                           ptl.ys.front() > 100.0 && ptl.ys.front() < 400.0,
                           strFormat("Portals=%.1f us", ptl.ys.front())});
         fig.addSeries(std::move(gm));
         fig.addSeries(std::move(ptl));
       }},

      // Paper: "given a large enough work interval, Portals will virtually
      // complete messaging whereas GM will not" — the application-offload
      // detector. Portals' wait time falls to ~0; GM's stays near the full
      // transfer time no matter how long the work interval is.
      {.id = "fig11", .bench = "fig11_pww_wait_time",
       .title = "PWW Method: Average Wait Time (100 KB)",
       .xlabel = "work_interval_iters", .ylabel = "wait_time_us",
       .expectation =
           "Portals wait falls to ~0 at long work intervals (application "
           "offload); GM wait stays ~constant at the full exchange time (no "
           "offload)",
       .logX = true,
       .sweeps = pwwGmVsPortals,
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         auto [gm, ptl] = gmAndPortals<PwwPoint>(
             in, [](const PwwPoint& p) { return p.avgWaitPerMsg * 1e6; });
         checks.push_back(report::checkEndsBelow(
             "Portals wait -> ~0 at long work intervals", ptl.ys, 20.0));
         checks.push_back(report::checkEndsAbove(
             "GM wait stays ~ message time (no offload)", gm.ys, 800.0));
         checks.push_back(report::checkFlat(
             "GM wait flat across work intervals", gm.ys, 0.35));
         fig.addSeries(std::move(gm));
         fig.addSeries(std::move(ptl));
       }},

      // Paper: plots time to complete the work phase with message handling
      // ("Work with MH") against the same work without communication ("Work
      // Only"), on a LINEAR work-interval axis. For kernel-based Portals the
      // with-MH line sits visibly above: interrupts and kernel copies steal
      // cycles from the application during its work phase.
      {.id = "fig12", .bench = "fig12_pww_overhead_portals",
       .title = "PWW Method: CPU Overhead (Portals)",
       .xlabel = "work_interval_iters", .ylabel = "work_phase_us",
       .expectation =
           "'Work with MH' visibly above 'Work Only': interrupt + kernel-copy "
           "overhead stretches the work phase while messages flow",
       .sweeps = [](int) {
         return linearPww("pww/portals/100 KB", backend::portalsMachine());
       },
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         auto [withMh, workOnly] = workWithAndWithoutMh(in);
         // Every point: with-MH above work-only by a clear margin somewhere.
         bool allAbove = true;
         double maxGap = 0;
         for (std::size_t i = 0; i < withMh.ys.size(); ++i) {
           allAbove = allAbove && withMh.ys[i] >= workOnly.ys[i];
           maxGap = std::max(maxGap, withMh.ys[i] - workOnly.ys[i]);
         }
         checks.push_back({"work-with-MH >= work-only at every interval",
                           allAbove, strFormat("max gap %.0f us", maxGap)});
         checks.push_back({"overhead gap is substantial (> 100 us somewhere)",
                           maxGap > 100.0,
                           strFormat("max gap %.0f us", maxGap)});
         checks.push_back(report::checkNearlyMonotone(
             "work-only grows linearly with the interval", workOnly.ys, true,
             1.0));
         fig.addSeries(std::move(withMh));
         fig.addSeries(std::move(workOnly));
       },
       .tracedSweep = 0},

      // Paper: for GM the two lines coincide — "virtually no communication
      // overhead in that the time to do work is the same regardless of the
      // presence or absence of communication". (Message handling is blocked
      // during the PWW work phase and GM raises no interrupts, so nothing
      // can steal application cycles.)
      {.id = "fig13", .bench = "fig13_pww_overhead_gm",
       .title = "PWW Method: CPU Overhead (GM)",
       .xlabel = "work_interval_iters", .ylabel = "work_phase_us",
       .expectation =
           "'Work with MH' and 'Work Only' coincide: OS-bypass GM steals no "
           "application cycles during the work phase",
       .sweeps = [](int) {
         return linearPww("pww/gm/100 KB", backend::gmMachine());
       },
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         auto [withMh, workOnly] = workWithAndWithoutMh(in);
         double maxRelGap = 0;
         for (std::size_t i = 0; i < withMh.ys.size(); ++i)
           maxRelGap = std::max(
               maxRelGap,
               std::abs(withMh.ys[i] - workOnly.ys[i]) / workOnly.ys[i]);
         checks.push_back(
             {"work phase identical with and without messaging (<1% gap)",
              maxRelGap < 0.01,
              strFormat("max relative gap %.3f%%", 100 * maxRelGap)});
         fig.addSeries(std::move(withMh));
         fig.addSeries(std::move(workOnly));
       },
       .tracedSweep = 0},

      // Paper: "virtually all of the CPU cycles are given to the application
      // ... while the network concurrently operates at maximum sustainable
      // bandwidth; this testifies to the OS offload to the NIC for GM" — the
      // curve hugs peak bandwidth out to availability ~1 for large messages.
      // EXCEPT 10 KB: the eager protocol burns ~45 us of host time per
      // send, so full bandwidth coexists only with reduced availability.
      {.id = "fig14", .bench = "fig14_bw_vs_avail_gm",
       .title = "Polling Method: Bandwidth vs CPU Availability (GM)",
       .xlabel = "cpu_availability", .ylabel = "bandwidth_MBps",
       .expectation =
           "peak bandwidth held out to availability ~0.95+ for >=50 KB (OS "
           "offload); the 10 KB curve reaches peak bandwidth only at reduced "
           "availability (eager-send host cost)",
       .sweeps = [](int ppd) {
         return family("polling/gm", backend::gmMachine(),
                       presets::pollingBase, presets::pollSweep(ppd + 1));
       },
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         for (const auto& sw : in) {
           auto s = bwVsAvail(sizeLabel(sw.msgBytes), sw.as<PollingPoint>());
           const double peak = peakOf(s.ys);
           if (sw.msgBytes >= 50 * 1024) {
             checks.push_back(report::checkCoexists(
                 "high availability at >=85% peak bandwidth (" + s.name + ")",
                 s.xs, s.ys, 0.9, 0.85 * peak));
           } else {
             // 10 KB: full bandwidth must NOT coexist with high availability.
             auto c =
                 report::checkCoexists("10 KB: peak bandwidth at avail>=0.8",
                                       s.xs, s.ys, 0.8, 0.85 * peak);
             c.pass = !c.pass;
             c.name = "10 KB peak bandwidth only at reduced availability";
             checks.push_back(std::move(c));
           }
           fig.addSeries(std::move(s));
         }
       }},

      // Paper: "the Portals communication overhead ... restricts maximum
      // sustained bandwidth to the lower ranges of CPU availability" — the
      // mirror image of GM's Fig 14.
      {.id = "fig15", .bench = "fig15_bw_vs_avail_portals",
       .title = "Polling Method: Bandwidth vs CPU Availability (Portals)",
       .xlabel = "cpu_availability", .ylabel = "bandwidth_MBps",
       .expectation =
           "maximum sustained bandwidth exists only at LOW availability "
           "(interrupt + copy overhead); at high availability bandwidth has "
           "collapsed",
       .sweeps = [](int ppd) { return portalsPolling(ppd + 1); },
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         for (const auto& sw : in) {
           auto s = bwVsAvail(sizeLabel(sw.msgBytes), sw.as<PollingPoint>());
           const double peak = peakOf(s.ys);
           // Peak bandwidth must NOT coexist with high availability...
           auto bad = report::checkCoexists("", s.xs, s.ys, 0.6, 0.8 * peak);
           bad.pass = !bad.pass;
           bad.name =
               "peak bandwidth confined to low availability (" + s.name + ")";
           checks.push_back(std::move(bad));
           // ...and peak bandwidth must exist at some low-availability point.
           std::vector<double> inverted;
           for (const double a : s.xs) inverted.push_back(1.0 - a);
           checks.push_back(report::checkCoexists(
               "peak bandwidth present at low availability (" + s.name + ")",
               inverted, s.ys, 0.6 /* i.e. availability <= 0.4 */, 0.9 * peak));
           fig.addSeries(std::move(s));
         }
       }},

      // Paper: the Polling curve holds peak bandwidth across nearly the
      // whole availability range; the PWW curve cannot — without
      // application offload, restricting MPI calls (large work intervals =
      // high availability) chokes bandwidth, so PWW bandwidth decays as
      // availability rises.
      {.id = "fig16", .bench = "fig16_poll_vs_pww_gm",
       .title = "Polling and PWW: Bandwidth vs Availability (GM)",
       .xlabel = "cpu_availability", .ylabel = "bandwidth_MBps",
       .expectation =
           "Poll curve: ~88 MB/s out to availability ~0.95+; PWW curve: "
           "bandwidth decays with availability (no application offload)",
       .sweeps = gmPollAndPww,
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         auto poll = bwVsAvail("Poll", in[0].as<PollingPoint>());
         auto pww = bwVsAvail("PWW", in[1].as<PwwPoint>());
         const double pollPeak = peakOf(poll.ys);
         checks.push_back(report::checkCoexists(
             "Poll: peak bandwidth at availability >= 0.9", poll.xs, poll.ys,
             0.9, 0.85 * pollPeak));
         // PWW: at availability >= 0.7 bandwidth must have collapsed.
         double worst = 0.0;
         for (std::size_t i = 0; i < pww.xs.size(); ++i)
           if (pww.xs[i] >= 0.7) worst = std::max(worst, pww.ys[i]);
         checks.push_back(
             {"PWW: bandwidth collapsed at high availability",
              worst < 0.5 * pollPeak,
              strFormat("max PWW bw at avail>=0.7: %.1f MB/s (poll peak %.1f)",
                        worst, pollPeak)});
         fig.addSeries(std::move(poll));
         fig.addSeries(std::move(pww));
       }},

      // Paper §4.3: inserting ONE MPI_Test() early in the PWW work phase
      // lets the library-driven GM stack progress the rendezvous during the
      // work phase, extending sustained bandwidth into much higher
      // availabilities — direct evidence that MPICH/GM needs library calls
      // to move data (an MPI progress-rule violation).
      {.id = "fig17", .bench = "fig17_mpi_test_effect",
       .title = "Polling and Modified PWW: Bandwidth vs Availability (GM)",
       .xlabel = "cpu_availability", .ylabel = "bandwidth_MBps",
       .expectation =
           "the added library call extends PWW's sustained bandwidth toward "
           "the Poll curve's high-availability region",
       .sweeps = [](int ppd) {
         auto sweeps = gmPollAndPww(ppd);
         auto test = std::get<SweepSpec<PwwParams>>(sweeps[1].spec);
         test.base.testCallAtFraction = 0.1;  // one MPI_Test early on
         sweeps.push_back({"pww+test/gm/100 KB", backend::gmMachine(), test});
         return sweeps;
       },
       .plot = [](const In& in, report::Figure& fig, Checks& checks) {
         auto poll = bwVsAvail("Poll", in[0].as<PollingPoint>());
         auto pww = bwVsAvail("PWW", in[1].as<PwwPoint>());
         auto pwwTest = bwVsAvail("PWW + Test", in[2].as<PwwPoint>());
         // The paper's claim: the added call "extend[s] the maximum
         // sustained bandwidth into higher CPU availabilities". Measure the
         // highest availability at which each PWW variant still sustains
         // >= 50% of the poll peak; the Test variant must push it
         // substantially further right.
         const double pollPeak = peakOf(poll.ys);
         const auto sustainedUpTo = [&](const report::Series& s) {
           double best = 0.0;
           for (std::size_t i = 0; i < s.xs.size(); ++i)
             if (s.ys[i] >= 0.5 * pollPeak) best = std::max(best, s.xs[i]);
           return best;
         };
         const double plainReach = sustainedUpTo(pww);
         const double testReach = sustainedUpTo(pwwTest);
         checks.push_back(
             {"MPI_Test extends sustained bandwidth to higher availability",
              testReach >= plainReach + 0.2,
              strFormat("half-peak sustained to avail %.2f (plain) vs %.2f "
                        "(+Test)",
                        plainReach, testReach)});
         // PWW+Test should sustain high bandwidth at high availability.
         checks.push_back(report::checkCoexists(
             "PWW+Test: >=60% of poll peak at availability >= 0.8",
             pwwTest.xs, pwwTest.ys, 0.8, 0.6 * pollPeak));
         fig.addSeries(std::move(poll));
         fig.addSeries(std::move(pwwTest));
         fig.addSeries(std::move(pww));
       }},
  };
  return rows;
}

struct PaperArgs {
  FigArgs fig;
  std::vector<const FigureRow*> rows;  ///< the selected rows, in table order
};

/// The common figure-bench arguments plus --figure ID[,ID...] (default:
/// every row). Validated at parse time like parseFigArgs: an unknown id,
/// or --trace without exactly one selected figure that has a traced
/// point, exits 2.
inline PaperArgs parsePaperArgs(int argc, const char* const* argv) {
  PaperArgs args;
  const auto declare = [](ArgParser& parser) {
    parser.addOption("figure",
                     "comma-separated figures to run, fig04 .. fig17",
                     "all");
  };
  const auto read = [&args](const ArgParser& parser, const FigArgs& fig) {
    const std::string list = parser.str("figure");
    const std::vector<std::string> ids = split(list, ',');
    for (const std::string& id : ids)
      if (list != "all" &&
          std::none_of(figureRows().begin(), figureRows().end(),
                       [&](const FigureRow& r) { return id == r.id; }))
        throw ConfigError("--figure: unknown figure '" + id + "'");
    for (const FigureRow& row : figureRows())
      if (list == "all" ||
          std::find(ids.begin(), ids.end(), row.id) != ids.end())
        args.rows.push_back(&row);
    if (!fig.traceFile.empty() &&
        (args.rows.size() != 1 || args.rows.front()->tracedSweep < 0))
      throw ConfigError(
          "--trace needs --figure naming exactly one figure with a traced "
          "point (fig04, fig12 or fig13)");
  };
  args.fig = parseFigArgs(argc, argv, "paper",
                          "COMB paper figures 4-17, each shared point "
                          "simulated once",
                          {declare, read});
  return args;
}

/// Render one row from the memo: its archive, its --trace run, then the
/// figure, its checks and CSV (finishFigure). Returns the row's exit code.
inline int renderRow(const FigureRow& row, PointMemo& memo,
                     const FigArgs& args) {
  const std::vector<Sweep> sweeps = row.sweeps(args.pointsPerDecade);
  FigArchive archive(row.bench, args);
  In in;
  for (const Sweep& sw : sweeps)
    std::visit(
        [&](const auto& spec) {
          const auto runs = memo.runs(sw.machine, spec);
          archive.add(sw.id, sw.machine, spec.values, runs);
          in.push_back(
              {spec.values, spec.base.msgBytes, canonicalPoints(runs)});
        },
        sw.spec);

  report::Figure fig(row.id, row.title, row.xlabel, row.ylabel);
  fig.logX(row.logX).paperExpectation(row.expectation);
  if (row.shareY) fig.yRange(0.0, 1.0);
  Checks checks;
  row.plot(in, fig, checks);
  archive.write();

  bool traceOk = true;
  if (row.tracedSweep >= 0) {
    const Sweep& sw = sweeps[static_cast<std::size_t>(row.tracedSweep)];
    traceOk = std::visit(
        [&](const auto& spec) {
          const auto params = expandSweep(spec);
          return maybeTrace(sw.machine, params[params.size() / 2], args);
        },
        sw.spec);
  }
  const int rc = finishFigure(fig, checks, args);
  return traceOk ? rc : std::max(rc, 1);
}

}  // namespace comb::bench::paper
