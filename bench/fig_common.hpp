// Shared scaffolding for the figure benches: the paper bench (paper.cpp)
// and the ext_* and ablate_* benches.
//
// Every figure bench:
//   * runs the relevant COMB sweeps on the simulated machine(s),
//   * prints each figure as an ASCII plot + data table,
//   * evaluates the paper's shape expectations (PASS/FAIL lines),
//   * optionally writes CSV (--csv [--out DIR]),
//   * exits non-zero if a shape expectation fails.
#pragma once

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "backend/machine.hpp"
#include "comb/archive_build.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/cli.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "common/units.hpp"
#include "report/expectations.hpp"
#include "report/figure.hpp"
#include "report/trace_export.hpp"

namespace comb::bench {

struct FigArgs {
  int pointsPerDecade = 2;
  /// How every sweep runs: the shared run options (comb/runner.hpp,
  /// addRunOptions). --jobs defaults to all hardware threads; results are
  /// bit-identical for any value. Figures always plot the canonical rep-0
  /// point; extra reps only feed the result archive.
  RunOptions opts;
  bool csv = false;
  std::string outDir = "bench_out";
  /// When non-empty (--trace FILE): re-run one representative sweep point
  /// with full tracing, write the Chrome trace JSON here, and audit the
  /// timeline against the reported numbers.
  std::string traceFile;
  /// When non-empty (--archive DIR): write a result archive (per-rep
  /// samples + provenance) next to the CSVs for `comb compare`.
  std::string archiveDir;
  bool parsedOk = true;  ///< false => exit with exitCode without running
  int exitCode = 0;      ///< 0 after --help, 2 on invalid arguments
};

/// Options a bench adds to the common set: `declare` registers them
/// before parsing; `read` reads and validates them after the common ones
/// and throws comb::Error to reject the arguments.
struct ExtraArgs {
  std::function<void(ArgParser&)> declare;
  std::function<void(const ArgParser&, const FigArgs&)> read;
};

/// Parse and *validate* the common figure-bench arguments. Bad values
/// (non-numeric, --points-per-decade < 1, or any run option that
/// runOptionsFrom rejects) are reported on stderr at parse time with
/// parsedOk=false / exitCode=2, instead of failing later inside the sweep.
inline FigArgs parseFigArgs(int argc, const char* const* argv,
                            const std::string& name,
                            const std::string& description,
                            const ExtraArgs& extra = {}) {
  ArgParser parser(name, description);
  if (extra.declare) extra.declare(parser);
  parser.addFlag("csv", "also write the series as CSV");
  parser.addOption("out", "directory for CSV output", "bench_out");
  parser.addOption("points-per-decade", "sweep density on log axes", "2");
  parser.addOption("trace",
                   "write a Chrome trace JSON of one representative point "
                   "to FILE and audit it against the reported stats",
                   "");
  addRunOptions(parser);
  FigArgs args;
  try {
    if (!parser.parse(argc, argv)) {
      args.parsedOk = false;  // --help printed; exit 0
      return args;
    }
    args.pointsPerDecade =
        static_cast<int>(parser.integer("points-per-decade"));
    if (args.pointsPerDecade < 1)
      throw ConfigError("--points-per-decade must be >= 1, got " +
                        parser.str("points-per-decade"));
    args.opts = runOptionsFrom(parser);
    args.csv = parser.flag("csv");
    args.outDir = parser.str("out");
    args.traceFile = parser.str("trace");
    args.archiveDir = parser.str("archive");
    if (extra.read) extra.read(parser, args);
    if (!args.traceFile.empty()) {
      // Fail at parse time, not after minutes of sweeping: the trace file
      // must be writable now.
      std::ofstream probe(args.traceFile);
      if (!probe)
        throw ConfigError("--trace: cannot open '" + args.traceFile +
                          "' for writing");
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), e.what());
    args.parsedOk = false;
    args.exitCode = 2;
  }
  return args;
}

inline std::string sizeLabel(Bytes b) { return fmtBytes(b); }

/// Render + checks + optional CSV. Returns process exit code.
inline int finishFigure(const report::Figure& fig,
                        const std::vector<report::ShapeCheck>& checks,
                        const FigArgs& args) {
  fig.render(std::cout);
  bool ok = true;
  if (!checks.empty()) {
    std::cout << "shape expectations vs the paper:\n";
    ok = report::reportChecks(std::cout, checks);
    std::cout << '\n';
  }
  if (args.csv) {
    const auto path = fig.writeCsvFile(args.outDir);
    std::cout << "csv: " << path << '\n';
  }
  return ok ? 0 : 1;
}

/// The canonical (rep-0) points of a repetition sweep: exactly what a
/// single-rep sweep would have produced, so figures stay byte-identical
/// whatever the rep policy.
template <typename Point>
std::vector<Point> canonicalPoints(const std::vector<RepRun<Point>>& runs) {
  std::vector<Point> points;
  points.reserve(runs.size());
  for (const auto& run : runs) points.push_back(run.canonical());
  return points;
}

/// Accumulates sweeps into a result archive when --archive was given;
/// otherwise every call is a no-op. Typical figure-bench use:
///
///   FigArchive archive("ext_latency_vs_size", args);
///   archive.add("latency/gm", backend::gmMachine(), sizes, gmRuns);
///   archive.write();
class FigArchive {
 public:
  FigArchive(const std::string& bench, const FigArgs& args)
      : dir_(args.archiveDir),
        archive_(makeArchive(bench, args.opts.rep, args.opts.simJobs,
                             args.opts.simAffinity)) {}

  bool enabled() const { return !dir_.empty(); }

  /// One sweep of any method (appendSweep). `xlabel` names the swept
  /// axis; it defaults to the row's primary axis and must be given when
  /// the bench sweeps something else.
  template <typename Point>
  void add(const std::string& id, const backend::MachineConfig& machine,
           const std::vector<std::uint64_t>& xs,
           const std::vector<RepRun<Point>>& runs,
           const std::string& xlabel = Method<typename Point::Param>::xlabel) {
    if (enabled()) appendSweep(archive_, id, machine, xs, runs, xlabel);
  }

  /// Write the archive file (creating the directory) and log its path.
  void write() const {
    if (!enabled()) return;
    std::cout << "archive: " << report::writeArchiveFile(archive_, dir_)
              << '\n';
  }

 private:
  std::string dir_;
  report::Archive archive_;
};

template <typename Point, typename F>
report::Series makeSeries(const std::string& name,
                          const std::vector<std::uint64_t>& xs,
                          const std::vector<Point>& points, F&& yOf) {
  report::Series s;
  s.name = name;
  for (std::size_t i = 0; i < points.size(); ++i) {
    s.xs.push_back(static_cast<double>(xs[i]));
    s.ys.push_back(yOf(points[i]));
  }
  return s;
}

/// --trace support: re-run the representative point (by convention the
/// middle of the sweep) fully traced, export the Chrome JSON, and audit
/// the timeline against the runner-reported stats through the row.
/// Returns true when no tracing was requested or the audit passed.
template <typename Param>
bool maybeTrace(const backend::MachineConfig& machine, const Param& params,
                const FigArgs& args) {
  if (args.traceFile.empty()) return true;
  const auto run = runPointTraced(machine, params, args.opts);
  const AuditResult audit = Method<Param>::audit(*run.trace, run.point);
  std::ofstream out(args.traceFile);
  if (!out) {
    std::fprintf(stderr, "--trace: cannot open '%s' for writing\n",
                 args.traceFile.c_str());
    return false;
  }
  report::writeChromeTrace(out, *run.trace);
  std::cout << "trace: wrote " << run.trace->size() << " record(s) to "
            << args.traceFile << " [" << run.trace->summary() << "]\n";
  if (!audit.error.empty()) {
    std::cout << "trace audit: FAIL — " << audit.error << '\n';
    return false;
  }
  std::cout << strFormat(
      "trace audit: OK — availability %.4f and per-phase times reproduced "
      "from span data within 1%%\n",
      audit.availability);
  return true;
}

/// Parametric (x = one metric, y = another) series, e.g. bandwidth vs
/// availability for Figs 14-17.
template <typename Point, typename FX, typename FY>
report::Series makeParametricSeries(const std::string& name,
                                    const std::vector<Point>& points, FX&& xOf,
                                    FY&& yOf) {
  report::Series s;
  s.name = name;
  for (const auto& p : points) {
    s.xs.push_back(xOf(p));
    s.ys.push_back(yOf(p));
  }
  return s;
}

}  // namespace comb::bench
