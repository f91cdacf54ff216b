// comb — the command-line front end of the benchmark suite.
//
//   comb polling --machine gm --size-kb 100 --interval 10000
//   comb polling --machine portals --size-kb 300 --sweep
//   comb pww     --machine gm --work 1000000 [--test-at 0.1] [--sweep]
//   comb latency --machine portals --size-kb 100
//   comb assess  --machine gm
//
// Machines are the bundled presets (backend/stacks.hpp) or a machine file,
// optionally modified by --cpus N --nic-cpu K (SMP extension) and
// --queue / --batch knobs.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>
#include <vector>

#include "comb_args.hpp"

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "comb/analysis.hpp"
#include "comb/archive_build.hpp"
#include "comb/compare.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/ascii_plot.hpp"
#include "common/json.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "report/machine_stats.hpp"
#include "report/trace_export.hpp"

using namespace comb;
using namespace comb::units;

namespace {

void usage() {
  std::puts(
      "usage: comb <polling|pww|latency|assess|stats|trace|compare|hist> "
      "[options]\n"
      "  common options (--machine, --size-kb, --jobs, --fault, --reps, ...):\n"
      "  `comb <method> --help` lists every option with its default\n"
      "  polling: --interval I | --sweep    --queue Q\n"
      "  pww:     --work W | --sweep        --batch B  --test-at F\n"
      "  latency: (size only)\n"
      "  assess:  full overlap assessment (all methods)\n"
      "  stats:   run a polling workload and dump substrate statistics\n"
      "  trace:   run one fully traced point (--method polling|pww),\n"
      "           audit it, and export/summarize the timeline\n"
      "           (--out FILE Chrome JSON, --summary, --top N,\n"
      "           --stats-json)\n"
      "  compare: comb compare BASELINE.json CANDIDATE.json\n"
      "           [--tolerance F] [--alpha F] [--all]\n"
      "           [--metric-class all|mean|tail]; exits 1 when the\n"
      "           candidate regressed. With one file of the\n"
      "           BENCH_sim_core.json shape, gates current vs baseline.\n"
      "  hist:    run one point (--method polling|pww) and render the\n"
      "           per-message latency distributions as ASCII CDFs\n"
      "           (--metric NAME for one instrument, --density for\n"
      "           per-bucket counts instead of the CDF)\n"
      "  try `comb <method> --help` for details");
}

/// --size-kb in bytes.
Bytes sizeFrom(const ArgParser& args) {
  return static_cast<Bytes>(args.integer("size-kb")) * 1024;
}

/// The polling point --size-kb, --queue and --interval describe.
bench::PollingParams pollingParamsFrom(const ArgParser& args) {
  auto p = bench::presets::pollingBase(sizeFrom(args));
  p.queueDepth = static_cast<int>(args.integer("queue"));
  p.pollInterval = static_cast<std::uint64_t>(args.integer("interval"));
  return p;
}

/// The PWW point --size-kb, --batch, --test-at and --work describe.
bench::PwwParams pwwParamsFrom(const ArgParser& args) {
  auto p = bench::presets::pwwBase(sizeFrom(args));
  p.batch = static_cast<int>(args.integer("batch"));
  p.testCallAtFraction = args.real("test-at");
  p.workInterval = static_cast<std::uint64_t>(args.integer("work"));
  return p;
}

/// Per-rep dispersion columns appended when more than one rep ran.
void addRepColumns(std::vector<std::string>& header) {
  header.insert(header.end(),
                {"reps", "bw_median", "bw_mad", "bw_ci95", "conv"});
}

template <typename Point>
void addRepFields(std::vector<std::string>& row,
                  const bench::RepRun<Point>& run) {
  std::vector<double> bw;
  for (const auto& p : run.reps) bw.push_back(toMBps(p.bandwidthBps));
  row.push_back(strFormat("%zu", run.reps.size()));
  row.push_back(strFormat("%.2f", median(bw)));
  row.push_back(strFormat("%.3f", mad(bw)));
  row.push_back(strFormat("[%.2f, %.2f]", toMBps(run.bandwidthCi.lo),
                          toMBps(run.bandwidthCi.hi)));
  row.push_back(run.converged ? "yes" : "NO");
}

/// The rep runs of --sweep (over `sweepXs`) or of the single point, with
/// their x values (the row's primary axis) in `xs`.
template <typename Param>
std::vector<bench::RepRun<bench::PointOf<Param>>> repRunsFrom(
    const ArgParser& args, const backend::MachineConfig& machine,
    const Param& params, const bench::RunOptions& opts,
    std::vector<std::uint64_t> sweepXs, std::vector<std::uint64_t>& xs) {
  if (args.flag("sweep")) {
    xs = std::move(sweepXs);
    return bench::runSweepReps(machine, bench::sweepOver(params, xs), opts);
  }
  xs = {params.*bench::Method<Param>::axis};
  return {bench::runPointReps(machine, params, opts)};
}

/// --archive DIR: write `runs` as sweep `id` of bench
/// comb_<method>_<machine>.
template <typename Point>
void maybeArchive(const ArgParser& args, const bench::RunOptions& opts,
                  const std::string& method, const std::string& id,
                  const backend::MachineConfig& machine,
                  const std::vector<std::uint64_t>& xs,
                  const std::vector<bench::RepRun<Point>>& runs) {
  const std::string dir = args.str("archive");
  if (dir.empty()) return;
  auto archive = bench::makeArchive("comb_" + method + "_" + machine.name,
                                    opts.rep, opts.simJobs, opts.simAffinity);
  bench::appendSweep(archive, id, machine, xs, runs);
  std::printf("archive: %s\n", report::writeArchiveFile(archive, dir).c_str());
}

void printPollingRow(TextTable& t, const bench::RepRun<bench::PollingPoint>& run,
                     bool withReps) {
  const auto& pt = run.canonical();
  std::vector<std::string> row{
      strFormat("%llu", (unsigned long long)pt.pollInterval),
      strFormat("%.2f", toMBps(pt.bandwidthBps)),
      strFormat("%.3f", pt.availability),
      strFormat("%llu", (unsigned long long)pt.messagesReceived),
      strFormat("%.1f", pt.recvTail.p50 * 1e6),
      strFormat("%.1f", pt.recvTail.p99 * 1e6),
      strFormat("%.1f", pt.recvTail.p999 * 1e6)};
  if (withReps) addRepFields(row, run);
  t.addRow(std::move(row));
}

int runPolling(const ArgParser& args) {
  const auto opts = bench::runOptionsFrom(args);
  const auto machine = cli::machineFrom(args, opts);
  const auto params = pollingParamsFrom(args);
  const bool withReps = opts.rep.adaptive || opts.rep.reps > 1;

  std::vector<std::string> header{"poll_interval", "bandwidth_MBps",
                                  "availability", "messages",
                                  "recv_p50_us", "recv_p99_us",
                                  "recv_p999_us"};
  if (withReps) addRepColumns(header);
  TextTable t(std::move(header));

  std::vector<std::uint64_t> xs;
  const auto runs = repRunsFrom(args, machine, params, opts,
                                bench::presets::pollSweep(2), xs);
  for (const auto& run : runs) printPollingRow(t, run, withReps);
  std::printf("polling method, machine=%s, size=%s, queue=%d\n\n%s",
              machine.name.c_str(), fmtBytes(params.msgBytes).c_str(),
              params.queueDepth, t.str().c_str());
  maybeArchive(args, opts, "polling",
               "polling/" + machine.name + "/" + fmtBytes(params.msgBytes),
               machine, xs, runs);
  return 0;
}

void printPwwRow(TextTable& t, const bench::RepRun<bench::PwwPoint>& run,
                 bool withReps) {
  const auto& pt = run.canonical();
  std::vector<std::string> row{
      strFormat("%llu", (unsigned long long)pt.workInterval),
      strFormat("%.2f", toMBps(pt.bandwidthBps)),
      strFormat("%.3f", pt.availability),
      strFormat("%.1f", pt.avgPostPerOp * 1e6),
      strFormat("%.1f", pt.avgWork * 1e6),
      strFormat("%.1f", pt.avgWaitPerMsg * 1e6),
      strFormat("%.1f", pt.recvTail.p99 * 1e6),
      strFormat("%.1f", pt.recvTail.p999 * 1e6)};
  if (withReps) addRepFields(row, run);
  t.addRow(std::move(row));
}

int runPww(const ArgParser& args) {
  const auto opts = bench::runOptionsFrom(args);
  const auto machine = cli::machineFrom(args, opts);
  const auto params = pwwParamsFrom(args);
  const bool withReps = opts.rep.adaptive || opts.rep.reps > 1;

  std::vector<std::string> header{"work_interval", "bandwidth_MBps",
                                  "availability", "post_us_per_op", "work_us",
                                  "wait_us_per_msg", "recv_p99_us",
                                  "recv_p999_us"};
  if (withReps) addRepColumns(header);
  TextTable t(std::move(header));

  std::vector<std::uint64_t> xs;
  const auto runs = repRunsFrom(args, machine, params, opts,
                                bench::presets::workSweep(2), xs);
  for (const auto& run : runs) printPwwRow(t, run, withReps);
  std::printf("post-work-wait method, machine=%s, size=%s, batch=%d%s\n\n%s",
              machine.name.c_str(), fmtBytes(params.msgBytes).c_str(),
              params.batch,
              params.testCallAtFraction >= 0 ? " (+MPI_Test in work)" : "",
              t.str().c_str());
  maybeArchive(args, opts, "pww",
               "pww/" + machine.name + "/" + fmtBytes(params.msgBytes),
               machine, xs, runs);
  return 0;
}

int runLatency(const ArgParser& args) {
  auto opts = bench::runOptionsFrom(args);
  const auto machine = cli::machineFrom(args, opts);
  bench::LatencyParams params;
  params.msgBytes = sizeFrom(args);
  opts.jobs = 1;  // one point: no sweep threads to budget shard workers for
  const auto run = bench::runPointReps(machine, params, opts);
  const auto& pt = run.canonical();
  std::printf("ping-pong, machine=%s, size=%s\n", machine.name.c_str(),
              fmtBytes(pt.msgBytes).c_str());
  std::printf("  half round trip: avg %s, min %s\n",
              fmtTime(pt.halfRoundTripAvg).c_str(),
              fmtTime(pt.halfRoundTripMin).c_str());
  std::printf("  bandwidth: %.2f MB/s\n", toMBps(pt.bandwidthBps));
  std::printf("  send latency tails (us): p50 %.1f, p90 %.1f, p99 %.1f, "
              "p999 %.1f over %llu msgs\n",
              pt.sendTail.p50 * 1e6, pt.sendTail.p90 * 1e6,
              pt.sendTail.p99 * 1e6, pt.sendTail.p999 * 1e6,
              (unsigned long long)pt.sendTail.count);
  if (run.reps.size() > 1)
    std::printf("  reps: %zu, bandwidth CI95 [%.2f, %.2f] MB/s%s\n",
                run.reps.size(), toMBps(run.bandwidthCi.lo),
                toMBps(run.bandwidthCi.hi),
                run.converged ? "" : " (CI target NOT reached)");
  maybeArchive(args, opts, "latency", "latency/" + machine.name, machine,
               {params.msgBytes}, std::vector{run});
  return 0;
}

/// `comb compare`: the regression gate. Two positional archive paths, or
/// one BENCH_sim_core.json-shaped baseline file.
int runCompare(const ArgParser& args) {
  bench::CompareOptions opts;
  opts.tolerance = args.real("tolerance");
  opts.alpha = args.real("alpha");
  opts.seed = static_cast<std::uint64_t>(args.integer("seed"));
  opts.metricClass = bench::parseMetricClass(args.str("metric-class"));
  const auto& paths = args.positional();

  bench::CompareReport report;
  if (paths.size() == 2) {
    const auto baseline = report::loadArchiveFile(paths[0]);
    const auto candidate = report::loadArchiveFile(paths[1]);
    std::printf("comparing archives: baseline %s (git %s) vs candidate %s "
                "(git %s), tolerance %.1f%%, metric class %s\n",
                paths[0].c_str(), baseline.provenance.gitSha.c_str(),
                paths[1].c_str(), candidate.provenance.gitSha.c_str(),
                100.0 * opts.tolerance,
                bench::metricClassName(opts.metricClass));
    report = bench::compareArchives(baseline, candidate, opts);
  } else if (paths.size() == 1) {
    const auto doc = json::parseFile(paths[0]);
    std::printf("comparing '%s' current vs baseline, tolerance %.1f%%\n",
                paths[0].c_str(), 100.0 * opts.tolerance);
    report = bench::compareBenchJson(doc, opts);
  } else {
    throw ConfigError(
        "compare needs `comb compare BASELINE.json CANDIDATE.json` or one "
        "BENCH_sim_core.json-shaped file");
  }
  bench::renderCompare(std::cout, report, args.flag("all"));
  return report.hasRegressions() ? 1 : 0;
}

int runAssess(const ArgParser& args) {
  const auto opts = bench::runOptionsFrom(args);
  const auto machine = cli::machineFrom(args, opts);
  bench::AssessOptions options;
  options.msgBytes = sizeFrom(args);
  options.jobs = opts.jobs;
  options.simJobs = opts.simJobs;
  options.simAffinity = opts.simAffinity;
  const auto a = bench::assessMachine(machine, options);
  std::printf("COMB assessment, machine=%s, size=%s\n\n%s",
              a.machineName.c_str(), fmtBytes(a.msgBytes).c_str(),
              a.verdictText().c_str());
  return 0;
}

/// Call `f` with the point of the --method (polling | pww) the options
/// describe.
template <typename F>
auto withMethod(const ArgParser& args, F&& f) {
  const std::string method = args.str("method");
  if (method == "polling") return f(pollingParamsFrom(args));
  if (method == "pww") return f(pwwParamsFrom(args));
  throw ConfigError("--method must be polling or pww, got '" + method + "'");
}

int runStats(const ArgParser& args) {
  auto opts = bench::runOptionsFrom(args);
  const auto machine = cli::machineFrom(args, opts);
  const auto params = pollingParamsFrom(args);
  opts.jobs = 1;  // one point: no sweep threads to budget shard workers for
  auto cluster = bench::clusterFor(machine, params, opts);
  if (args.flag("trace")) cluster.enableTracing();
  const auto point = bench::measureOn(cluster, params);
  std::printf("polling workload: bw %.2f MB/s, availability %.3f\n\n",
              toMBps(point.bandwidthBps), point.availability);
  report::renderStats(std::cout, report::snapshot(cluster));
  if (auto* log = cluster.traceLog()) {
    std::printf("\ntrace: %s\n", log->summary().c_str());
    log->dump(std::cout,
              static_cast<std::size_t>(args.integer("trace-rows")));
  }
  return 0;
}

/// `comb trace`: run one fully traced point, audit the timeline against
/// the reported numbers, and export (--out) and/or summarize (--summary).
int runTrace(const ArgParser& args) {
  auto opts = bench::runOptionsFrom(args);
  const auto machine = cli::machineFrom(args, opts);
  opts.jobs = 1;  // one point: no sweep threads to budget shard workers for
  return withMethod(args, [&](const auto& params) {
    using Param = std::decay_t<decltype(params)>;
    const auto run = bench::runPointTraced(machine, params, opts);
    const auto audit = bench::Method<Param>::audit(*run.trace, run.point);
    std::printf("traced %s point, machine=%s, size=%s: availability %.3f\n",
                args.str("method").c_str(), machine.name.c_str(),
                fmtBytes(sizeFrom(args)).c_str(), run.point.availability);
    if (const std::string out = args.str("out"); !out.empty()) {
      std::ofstream f(out);
      if (!f)
        throw ConfigError("--out: cannot open '" + out + "' for writing");
      report::writeChromeTrace(f, *run.trace);
      std::printf("wrote %zu trace record(s) to %s\n", run.trace->size(),
                  out.c_str());
    }
    if (args.flag("summary")) {
      std::printf("\n");
      report::writeTraceSummary(std::cout, *run.trace,
                                static_cast<std::size_t>(args.integer("top")));
    }
    if (args.flag("stats-json")) report::writeStatsJson(std::cout, run.stats);
    if (!audit.error.empty()) {
      std::printf("trace audit: FAIL — %s\n", audit.error.c_str());
      return 1;
    }
    std::printf(
        "trace audit: OK — span data reproduces the reported stats\n");
    return 0;
  });
}

/// One plot series per latency sample: the empirical CDF (default) or the
/// per-bucket sample counts (--density), x in microseconds.
PlotSeries latencySeries(const metrics::LatencySample& sample,
                         std::string name, bool density) {
  PlotSeries s;
  s.name = std::move(name);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
    const std::uint64_t c = sample.buckets[i];
    if (c == 0) continue;
    cum += c;
    const std::size_t b = sample.first + i;
    const double midTicks =
        0.5 * (static_cast<double>(LatencyRecorder::bucketLowTicks(b)) +
               static_cast<double>(LatencyRecorder::bucketHighTicks(b)));
    s.xs.push_back(midTicks * 1e-3);  // ticks are ns; plot in us
    s.ys.push_back(density ? static_cast<double>(c)
                           : static_cast<double>(cum) /
                                 static_cast<double>(sample.count));
  }
  return s;
}

void printTailLine(const char* label, const TailSummary& t) {
  std::printf("  %-28s n=%llu  mean %.1f  p50 %.1f  p90 %.1f  p99 %.1f  "
              "p999 %.1f  max %.1f (us)\n",
              label, (unsigned long long)t.count, t.mean * 1e6, t.p50 * 1e6,
              t.p90 * 1e6, t.p99 * 1e6, t.p999 * 1e6, t.max * 1e6);
}

/// `comb hist`: run one point and render the per-message latency
/// distributions as ASCII CDFs (or bucket densities).
int runHist(const ArgParser& args) {
  auto opts = bench::runOptionsFrom(args);
  const auto machine = cli::machineFrom(args, opts);
  opts.jobs = 1;  // one point: no sweep threads to budget shard workers for
  const auto snap = withMethod(args, [&](const auto& params) {
    auto cluster = bench::clusterFor(machine, params, opts);
    bench::measureOn(cluster, params);
    return cluster.metricsSnapshot();
  });
  const bool density = args.flag("density");

  std::vector<PlotSeries> series;
  std::printf("%s point, machine=%s, size=%s\n", args.str("method").c_str(),
              machine.name.c_str(), fmtBytes(sizeFrom(args)).c_str());
  if (const std::string name = args.str("metric"); !name.empty()) {
    const metrics::LatencySample* sample = snap.latency(name);
    if (sample == nullptr || sample->count == 0) {
      std::printf("no samples under latency instrument '%s'; available:\n",
                  name.c_str());
      for (const auto& l : snap.latencies)
        if (l.count > 0)
          std::printf("  %s (%llu samples)\n", l.name.c_str(),
                      (unsigned long long)l.count);
      return 2;
    }
    printTailLine(name.c_str(), sample->tail());
    series.push_back(latencySeries(*sample, name, density));
  } else {
    const auto send =
        metrics::mergeLatencyFamily(snap, "mpi.n", ".send_latency");
    const auto recv =
        metrics::mergeLatencyFamily(snap, "mpi.n", ".recv_latency");
    printTailLine("send (all ranks)", send.tail());
    printTailLine("recv (all ranks)", recv.tail());
    if (send.count) series.push_back(latencySeries(send, "send", density));
    if (recv.count) series.push_back(latencySeries(recv, "recv", density));
  }
  if (series.empty()) {
    std::printf("no latency samples recorded\n");
    return 2;
  }
  PlotOptions plot;
  plot.logX = true;
  plot.xlabel = "latency_us";
  plot.ylabel = density ? "samples_per_bucket" : "cumulative_fraction";
  plot.title = density ? "latency bucket density" : "latency CDF";
  if (!density) {
    plot.ymin = 0.0;
    plot.ymax = 1.0;
  }
  renderPlot(std::cout, series, plot);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string method = argv[1];
  if (method == "--help" || method == "-h" || method == "help") {
    usage();
    return 0;
  }
  try {
    auto args = cli::makeParser(method);
    if (!args.parse(argc - 1, argv + 1)) return 0;
    if (method == "polling") return runPolling(args);
    if (method == "pww") return runPww(args);
    if (method == "latency") return runLatency(args);
    if (method == "assess") return runAssess(args);
    if (method == "stats") return runStats(args);
    if (method == "trace") return runTrace(args);
    if (method == "compare") return runCompare(args);
    if (method == "hist") return runHist(args);
    std::fprintf(stderr, "comb: unknown method '%s'\n\n", method.c_str());
    usage();
    return 2;
  } catch (const Error& e) {
    std::fprintf(stderr, "comb: %s\n", e.what());
    return 2;
  }
}
