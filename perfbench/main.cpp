// perfbench: the host cost of producing COMB results.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// A pass runs every point of the seeded workload back to back, then
// writes the pass's result archive and gates it against itself with the
// suite's compare engine. Passes repeat until --seconds is spent; pass
// timings are medians over passes, and a point's time is its fastest pass. --trace 0 prints the end-to-end metrics;
// --trace 1 prints the per-layer metrics and adds one traced pass, whose
// host spans (Chrome trace format) and simulator trace census are written
// under --out. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "comb/archive_build.hpp"
#include "comb/compare.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"
#include "measure.hpp"
#include "report/archive.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace cb = comb::bench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".bench_build/perfbench_out";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out DIR]\nworkloads:";
  for (const auto& n : workloadNames()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

Options parseArgs(int argc, char** argv) {
  Options o;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = v;
      haveWorkload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end) usage("--seed needs a non-negative integer");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end || !(o.seconds > 0)) usage("--seconds needs > 0");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--out") {
      o.out = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!haveWorkload) usage("--workload is required");
  return o;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Linear-interpolation quantile (the "inclusive" method).
double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

struct Pass {
  std::vector<PointResult> points;
  /// Median calibration speed of the pass's points (see measure.hpp).
  double speed = 1.0;
  /// Reference seconds: every point from machine build to teardown, plus
  /// the archive write and self-compare (calibration kernels excluded).
  double wallS = 0;
  double archiveWriteS = 0;
  double archiveCompareS = 0;
  std::string archiveFailure;  ///< empty when the self-compare is clean

  /// Sum of f over the pass's points.
  template <typename F>
  double sum(F&& f) const {
    double s = 0;
    for (const auto& p : points) s += f(p);
    return s;
  }
};

/// The host times a pass leaves behind once its points are dropped (only
/// the first pass keeps its points, so memory does not grow with the
/// number of passes that fit the budget).
struct PassTimes {
  HostTimes sum;           ///< per-call host seconds summed over points
  double barrierS = 0;     ///< executor barrier wait, all workers
  double workerS = 0;      ///< run() seconds times executor workers
  double speed = 1.0;
  double wallS = 0;
  double archiveWriteS = 0;
  double archiveCompareS = 0;

  explicit PassTimes(const Pass& p)
      : barrierS(p.sum([](const PointResult& r) { return r.barrierWaitS; })),
        workerS(p.sum([](const PointResult& r) { return r.t.run * r.workers; })),
        speed(p.speed),
        wallS(p.wallS),
        archiveWriteS(p.archiveWriteS),
        archiveCompareS(p.archiveCompareS) {
    for (const auto& r : p.points) sum += r.t;
  }
  double setupS() const { return sum.machineBuild + sum.clusterBuild; }
};

/// Build the pass's archive (one sweep per family), serialize it, read it
/// back and gate it against the original: any flagged regression means
/// the archive path lost or changed a number.
void archivePass(const Workload& w, Pass& pass, SpanLog* spans) {
  const auto t0 = Clock::now();
  int simJobs = 1;
  for (const auto& p : w.points) simJobs = std::max(simJobs, p.simJobs);
  auto archive = cb::makeArchive("perfbench_" + w.name, cb::RepPolicy{}, simJobs);
  std::vector<std::string> families;
  for (const auto& p : w.points)
    if (std::find(families.begin(), families.end(), p.family) == families.end())
      families.push_back(p.family);
  for (const auto& family : families) {
    std::vector<std::uint64_t> xs;
    std::vector<cb::RepRun<cb::PollingPoint>> polling;
    std::vector<cb::RepRun<cb::PwwPoint>> pww;
    std::vector<cb::RepRun<cb::CongestionPoint>> congestion;
    const comb::backend::MachineConfig* machine = nullptr;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const auto& r = pass.points[i];
      if (w.points[i].family != family || !r.failure.empty()) continue;
      machine = &r.machine;
      xs.push_back(w.points[i].x);
      std::visit(
          [&](const auto& pt) {
            using T = std::decay_t<decltype(pt)>;
            cb::RepRun<T> run;
            run.reps.push_back(pt);
            if constexpr (std::is_same_v<T, cb::PollingPoint>)
              polling.push_back(std::move(run));
            else if constexpr (std::is_same_v<T, cb::PwwPoint>)
              pww.push_back(std::move(run));
            else
              congestion.push_back(std::move(run));
          },
          r.point);
    }
    if (!machine) continue;
    if (!polling.empty())
      cb::appendPollingSweep(archive, family, *machine, xs, polling);
    else if (!pww.empty())
      cb::appendPwwSweep(archive, family, *machine, xs, pww);
    else
      cb::appendCongestionSweep(archive, family, *machine, xs, congestion);
  }
  std::ostringstream json;
  comb::report::writeArchive(json, archive);
  const auto t1 = Clock::now();
  try {
    const auto back = comb::report::parseArchive(
        comb::json::parse(json.str(), archive.bench), archive.bench);
    const auto report = cb::compareArchives(archive, back);
    if (report.hasRegressions() || report.rows.empty())
      pass.archiveFailure = comb::strFormat(
          "archive self-compare: %d regressed of %zu rows", report.regressed,
          report.rows.size());
  } catch (const comb::Error& e) {
    pass.archiveFailure = std::string("archive self-compare: ") + e.what();
  }
  const auto t2 = Clock::now();
  pass.archiveWriteS =
      std::chrono::duration<double>(t1 - t0).count() * pass.speed;
  pass.archiveCompareS =
      std::chrono::duration<double>(t2 - t1).count() * pass.speed;
  if (spans) {
    spans->add("archive_write", -1, -1, t0, t1);
    spans->add("archive_compare", -1, -1, t1, t2);
  }
}

Pass runPass(const Workload& w, SpanLog* spans) {
  Pass pass;
  pass.points.reserve(w.points.size());
  std::vector<double> speeds;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    pass.points.push_back(runPoint(w.points[i], spans, static_cast<int>(i)));
    speeds.push_back(pass.points.back().speed);
  }
  pass.speed = median(speeds);
  archivePass(w, pass, spans);
  pass.wallS = pass.sum([](const PointResult& r) { return r.t.total; }) +
               pass.archiveWriteS + pass.archiveCompareS;
  return pass;
}

/// FNV-1a over every exact count of a pass: equal digests for two runs of
/// one seed mean the simulated work repeated bit for bit.
std::uint64_t exactDigest(const Pass& pass) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  };
  for (const auto& p : pass.points) {
    mix(&p.c, sizeof p.c);
    const Figures f = figuresOf(p.point);
    mix(&f, sizeof f);
  }
  return h;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string base;  ///< what a ratio is taken over, for the printout
};

std::string jsonNumber(double v) { return comb::strFormat("%.17g", v); }

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parseArgs(argc, argv);
  Workload w;
  try {
    w = makeWorkload(opt.workload, opt.seed);
  } catch (const comb::Error& e) {
    usage(e.what());
  }

  std::cout << "workload " << w.name << " seed " << opt.seed << ": "
            << w.points.size() << " points per pass, closed batch, one point "
            << "after another\nwhy: " << w.why << '\n';
  printInputs(std::cout, w);

  std::vector<std::string> problems;
  std::uint64_t attempted = 0, failed = 0;
  const auto account = [&](const Pass& pass) {
    if (!pass.archiveFailure.empty()) problems.push_back(pass.archiveFailure);
    for (std::size_t i = 0; i < pass.points.size(); ++i) {
      ++attempted;
      const auto& r = pass.points[i];
      if (r.failure.empty()) continue;
      ++failed;
      problems.push_back(comb::strFormat(
          "point %zu (%s x=%llu): %s", i, w.points[i].family.c_str(),
          static_cast<unsigned long long>(w.points[i].x), r.failure.c_str()));
    }
  };
  const auto sameWork = [](const PointResult& a, const PointResult& b) {
    return a.c == b.c && figuresOf(a.point) == figuresOf(b.point);
  };

  // --- untraced passes: at least kMinPasses, then more while the next
  // pass still fits the time budget -------------------------------------------
  constexpr std::size_t kMinPasses = 3;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  Pass first;
  std::vector<PassTimes> passes;
  // A point's cost is its fastest pass: every pass repeats identical
  // simulated work, so slower repeats are host interference.
  std::vector<double> bestMs;
  while (true) {
    const auto p0 = Clock::now();
    Pass pass = runPass(w, nullptr);
    account(pass);
    passes.emplace_back(pass);
    if (passes.size() == 1) {
      for (const auto& r : pass.points) bestMs.push_back(r.t.total * 1e3);
      first = std::move(pass);
    } else {
      for (std::size_t i = 0; i < w.points.size(); ++i) {
        bestMs[i] = std::min(bestMs[i], pass.points[i].t.total * 1e3);
        if (!sameWork(pass.points[i], first.points[i]))
          problems.push_back(comb::strFormat(
              "pass %zu point %zu: exact counts differ from pass 0",
              passes.size() - 1, i));
      }
    }
    const auto now = Clock::now();
    if (passes.size() >= kMinPasses && now + (now - p0) > deadline)
      break;
  }

  // --- traced pass ---------------------------------------------------------
  std::optional<Pass> traced;
  std::optional<SpanLog> spans;
  if (opt.trace) {
    spans.emplace(Clock::now());
    traced = runPass(w, &*spans);
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      auto& tp = traced->points[i];
      if (tp.failure.empty() && !sameWork(tp, first.points[i]))
        tp.failure = "traced point differs from its untraced twin";
    }
    account(*traced);
  }

  // --- metrics ---------------------------------------------------------------
  const auto perPass = [&](auto f) {
    std::vector<double> xs;
    for (const auto& p : passes) xs.push_back(f(p));
    return median(xs);
  };

  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double v, std::string unit,
                       std::string base = {}) {
    metrics.push_back({std::move(name), v, std::move(unit), std::move(base)});
  };

  if (!opt.trace) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const std::string points = comb::strFormat(
        "%zu points, each its fastest of %zu passes", bestMs.size(),
        passes.size());
    add("wall_s", perPass([](const PassTimes& p) { return p.wallS; }), "s",
        comb::strFormat("median of %zu passes", passes.size()));
    add("point_ms_p50", quantile(bestMs, 0.5), "ms", points);
    add("point_ms_p90", quantile(bestMs, 0.9), "ms", points);
    add("setup_s", perPass([](const PassTimes& p) { return p.setupS(); }), "s",
        comb::strFormat("median of %zu passes", passes.size()));
    add("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  } else {
    const auto sumT = [&](double HostTimes::*field) {
      return perPass([field](const PassTimes& p) { return p.sum.*field; });
    };
    const auto sumC = [&](std::uint64_t LayerCounts::*field) {
      return first.sum([field](const PointResult& r) {
        return static_cast<double>(r.c.*field);
      });
    };
    const double runS = sumT(&HostTimes::run);
    const double events = sumC(&LayerCounts::events);
    const double messages = sumC(&LayerCounts::mpiMessages);
    const double fragsTx = sumC(&LayerCounts::fragsTx);
    const double retransmits = sumC(&LayerCounts::retransmits);
    const double interrupts = sumC(&LayerCounts::interrupts);
    const double calls = sumC(&LayerCounts::mpiCalls);
    const double barrierS =
        perPass([](const PassTimes& p) { return p.barrierS; });
    const double workerS = perPass([](const PassTimes& p) { return p.workerS; });
    double peakQueue = 0, imbalance = 0;
    comb::metrics::LatencySample recv;
    for (const auto& r : first.points) {
      peakQueue = std::max(peakQueue, static_cast<double>(r.c.switchQueuePeak));
      imbalance += r.shardImbalance;
      if (recv.buckets.empty()) recv.buckets.assign(r.recv.buckets.size(), 0);
      for (std::size_t b = 0; b < r.recv.buckets.size(); ++b)
        recv.buckets[b] += r.recv.buckets[b];
      if (r.recv.count && (!recv.count || r.recv.minTicks < recv.minTicks))
        recv.minTicks = r.recv.minTicks;
      recv.maxTicks = std::max(recv.maxTicks, r.recv.maxTicks);
      recv.count += r.recv.count;
      recv.sumTicks += r.recv.sumTicks;
    }
    const auto tail = recv.tail();
    const auto n = static_cast<double>(first.points.size());

    add("sim.run_s", runS, "s");
    add("sim.events", events, "count");
    add("sim.events_per_s", ratio(events, runS), "1/s", "sim.events / sim.run_s");
    add("sim.events_per_msg", ratio(events, messages), "count",
        "sim.events / mpi.messages");
    add("sim.exec_windows", sumC(&LayerCounts::windows), "count");
    add("sim.exec_barrier_wait_s", barrierS, "s");
    add("sim.exec_barrier_wait_share", ratio(barrierS, workerS), "share",
        comb::strFormat("base: %.6g worker-seconds in run()", workerS));
    add("sim.exec_shard_imbalance", ratio(imbalance, n), "ratio",
        "mean over points of max/mean shard events");
    add("backend.cluster_build_ms", 1e3 * sumT(&HostTimes::clusterBuild), "ms");
    add("backend.cluster_teardown_ms", 1e3 * sumT(&HostTimes::teardown), "ms");
    add("backend.machine_build_ms", 1e3 * sumT(&HostTimes::machineBuild), "ms");
    add("host.interrupts", interrupts, "count");
    add("host.interrupts_per_msg", ratio(interrupts, messages), "count",
        "host.interrupts / mpi.messages");
    add("nic.frags_tx", fragsTx, "count");
    add("nic.frags_rx", sumC(&LayerCounts::fragsRx), "count");
    add("nic.retransmits", retransmits, "count");
    add("nic.timeout_wakeups", sumC(&LayerCounts::timeoutWakeups), "count");
    add("nic.duplicates_filtered", sumC(&LayerCounts::duplicatesFiltered),
        "count");
    add("nic.useful_tx_ratio", ratio(fragsTx, fragsTx + retransmits), "share",
        comb::strFormat("base: nic.frags_tx %.0f + nic.retransmits %.0f",
                        fragsTx, retransmits));
    add("transport.pt_engine_wakeups", sumC(&LayerCounts::ptEngineWakeups),
        "count");
    add("transport.rdma_unexpected_fallbacks",
        sumC(&LayerCounts::rdmaFallbacks), "count");
    add("mpi.calls", calls, "count");
    add("mpi.calls_per_msg", ratio(calls, messages), "count",
        "mpi.calls / mpi.messages");
    add("mpi.messages", messages, "count");
    add("mpi.recv_p50_us", tail.p50 * 1e6, "us",
        comb::strFormat("simulated, %llu receives",
                        static_cast<unsigned long long>(tail.count)));
    add("mpi.recv_p999_us", tail.p999 * 1e6, "us",
        comb::strFormat("simulated, %llu receives",
                        static_cast<unsigned long long>(tail.count)));
    add("net.link_packets", sumC(&LayerCounts::linkPackets), "count");
    add("net.link_bytes", sumC(&LayerCounts::linkBytes), "bytes");
    add("net.link_drops", sumC(&LayerCounts::linkDrops), "count");
    add("net.switch_packets", sumC(&LayerCounts::switchPackets), "count");
    add("net.switch_credit_stalls", sumC(&LayerCounts::switchCreditStalls),
        "count");
    add("net.switch_queue_peak_pkts", peakQueue, "count");
    add("common.metrics_latency_samples", sumC(&LayerCounts::latencySamples),
        "count");
    add("common.metrics_snapshot_ms", 1e3 * sumT(&HostTimes::snapshot), "ms");
    add("comb.reduce_ms", 1e3 * sumT(&HostTimes::reduce), "ms");
    add("report.archive_write_ms",
        1e3 * perPass([](const PassTimes& p) { return p.archiveWriteS; }),
        "ms");
    add("report.archive_compare_ms",
        1e3 * perPass([](const PassTimes& p) { return p.archiveCompareS; }),
        "ms");

    const double tracedRunS =
        traced->sum([](const PointResult& r) { return r.t.run; });
    Census census;
    for (const auto& r : traced->points) {
      for (std::size_t i = 0; i < census.counts.size(); ++i)
        census.counts[i] += r.census.counts[i];
      census.records += r.census.records;
      census.dropped += r.census.dropped;
    }
    const double coverage = spans->minChildCoverage();
    if (coverage < 0.95)
      problems.push_back(comb::strFormat(
          "traced point spans cover only %.3f of a point's wall time",
          coverage));
    add("trace.records", static_cast<double>(census.records), "count");
    add("trace.dropped", static_cast<double>(census.dropped), "count");
    add("trace.overhead_ratio", ratio(tracedRunS, runS), "ratio",
        comb::strFormat("base: traced run() %.6g s / untraced %.6g s",
                        tracedRunS, runS));
    add("trace.span_coverage_min", coverage, "share",
        "child spans / point wall time, worst point");
    std::string otherData = "{\"workload\":\"" + w.name + "\",\"seed\":" +
                            std::to_string(opt.seed) + ",\"census\":{";
    for (std::size_t i = 0; i < census.counts.size(); ++i) {
      const std::string name = std::string("trace.census.") + Census::kNames[i];
      add(name, static_cast<double>(census.counts[i]), "count");
      otherData += comb::strFormat("%s\"%s\":%llu", i ? "," : "",
                                   Census::kNames[i],
                                   static_cast<unsigned long long>(
                                       census.counts[i]));
    }
    otherData += comb::strFormat("},\"records\":%llu,\"dropped\":%llu}",
                                 static_cast<unsigned long long>(census.records),
                                 static_cast<unsigned long long>(census.dropped));

    std::filesystem::create_directories(opt.out);
    const std::string path = opt.out + "/" + w.name + "_seed" +
                             std::to_string(opt.seed) + ".trace.json";
    std::ofstream f(path);
    spans->writeChromeTrace(f, otherData);
    f.close();
    if (!f) problems.push_back("could not write " + path);
    std::cout << "spans: " << spans->spans().size() << " written to " << path
              << '\n';
  }
  add("failed_ratio", ratio(static_cast<double>(failed),
                            static_cast<double>(attempted)),
      "share", comb::strFormat("%llu failed of %llu points",
                               static_cast<unsigned long long>(failed),
                               static_cast<unsigned long long>(attempted)));

  // --- report ---------------------------------------------------------------
  std::cout << comb::strFormat("passes: %zu untraced%s; exact_digest=%016llx\n",
                               passes.size(), traced ? " + 1 traced" : "",
                               static_cast<unsigned long long>(
                                   exactDigest(first)));
  std::cout << "pass wall_s, reference (measured):";
  for (const auto& p : passes)
    std::cout << comb::strFormat(" %.4f (%.4f)", p.wallS, p.wallS / p.speed);
  std::cout << comb::strFormat(
      "\nhost times in reference seconds: calibration kernel median %.4f ms "
      "per point, reference %.4f ms\n",
      1e3 * kReferenceKernelS /
          perPass([](const PassTimes& p) { return p.speed; }),
      1e3 * kReferenceKernelS);
  for (const auto& m : metrics)
    std::cout << comb::strFormat("%-36s %18.6f %-6s %s\n", m.name.c_str(),
                                 m.value, m.unit.c_str(), m.base.c_str());
  for (const auto& p : problems) std::cout << "FAIL " << p << '\n';

  // The JSON result carries exactly the metrics of the selected mode;
  // failed_ratio is printed above and folded into attempted/failed.
  std::string json = comb::strFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      problems.empty() ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  bool firstMetric = true;
  for (const auto& m : metrics) {
    if (m.name == "failed_ratio" && !opt.trace) continue;
    json += comb::strFormat("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                            firstMetric ? "" : ", ", m.name.c_str(),
                            jsonNumber(m.value).c_str(), m.unit.c_str());
    firstMetric = false;
  }
  std::cout << json << "}}" << std::endl;
  return 0;
}
