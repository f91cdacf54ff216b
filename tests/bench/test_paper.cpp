// The paper bench (bench/paper.hpp): its point memo simulates each
// distinct (machine, Param) point once and hands back exactly what a
// fresh sweep would; its table keeps the figures' ids and archive names;
// its arguments are validated at parse time.
#include "bench/paper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

namespace comb::bench::paper {
namespace {

PaperArgs parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "paper");
  return parsePaperArgs(static_cast<int>(argv.size()), argv.data());
}

const FigureRow& row(const std::string& id) {
  const auto& rows = figureRows();
  return *std::find_if(rows.begin(), rows.end(),
                       [&](const FigureRow& r) { return id == r.id; });
}

/// A short polling run, so a sweep of it costs little.
PollingParams cheapPolling() {
  PollingParams p = presets::pollingBase(10 * 1024);
  p.targetDuration = 1e-3;
  p.maxPolls = 200;
  return p;
}

TEST(PointMemo, SharedFigureSweepsSimulateNoNewPoint) {
  // Figs 4 and 5 plot the same Portals polling runs.
  RunOptions opts;
  opts.jobs = hardwareJobs();
  PointMemo memo(opts);
  memo.fill(row("fig04").sweeps(1));
  const std::size_t afterFig04 = memo.simulated();
  EXPECT_EQ(afterFig04, 4 * presets::pollSweep(1).size());
  memo.fill(row("fig05").sweeps(1));
  EXPECT_EQ(memo.simulated(), afterFig04);
}

TEST(PointMemo, DenserSweepSimulatesOnlyItsNewPoints) {
  const auto coarse = presets::pollSweep(2);
  const auto dense = presets::pollSweep(3);
  std::size_t shared = 0;
  for (const auto x : dense)
    shared += static_cast<std::size_t>(
        std::count(coarse.begin(), coarse.end(), x));
  ASSERT_EQ(shared, 8u);  // the decade points 10^1 .. 10^8

  PointMemo memo(RunOptions{});
  const auto machine = backend::gmMachine();
  memo.runs(machine, sweepOver(cheapPolling(), coarse));
  EXPECT_EQ(memo.simulated(), coarse.size());
  memo.runs(machine, sweepOver(cheapPolling(), dense));
  EXPECT_EQ(memo.simulated(), coarse.size() + dense.size() - shared);
}

TEST(PointMemo, KeysOnMachineAndParams) {
  PointMemo memo(RunOptions{});
  const std::vector<std::uint64_t> xs = {100, 1000};
  memo.runs(backend::gmMachine(), sweepOver(cheapPolling(), xs));
  memo.runs(backend::portalsMachine(), sweepOver(cheapPolling(), xs));
  PollingParams deeper = cheapPolling();
  deeper.queueDepth = 4;
  memo.runs(backend::gmMachine(), sweepOver(deeper, xs));
  EXPECT_EQ(memo.simulated(), 3 * xs.size());
}

template <typename Param>
void expectMemoMatchesFreshSweep(const SweepSpec<Param>& spec) {
  const RunOptions opts =
      parse({"--reps", "2", "--fault", "drop=0.02,seed=5"}).fig.opts;
  ASSERT_TRUE(opts.fault.has_value());
  PointMemo memo(opts);
  const auto machine = backend::portalsMachine();
  // Ask for the sweep's tail first, so the full sweep is served partly
  // from points simulated under another sweep.
  SweepSpec<Param> tail = spec;
  tail.values.erase(tail.values.begin());
  memo.runs(machine, tail);
  const auto memoized = memo.runs(machine, spec);
  const auto fresh = runSweepReps(machine, spec, opts);
  ASSERT_EQ(memoized.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    ASSERT_EQ(fresh[i].reps.size(), 2u);
    EXPECT_TRUE(memoized[i].reps == fresh[i].reps) << "point " << i;
  }
}

TEST(PointMemo, MemoizedRunsEqualFreshSweepRepsUnderFaults) {
  expectMemoMatchesFreshSweep(sweepOver(cheapPolling(), {100, 10'000}));
  PwwParams pww = presets::pwwBase(10 * 1024);
  pww.reps = 5;
  expectMemoMatchesFreshSweep(sweepOver(pww, {1'000, 100'000}));
}

TEST(FigureRows, IdsAndArchiveNamesAreTheFourteenFigures) {
  const std::vector<std::string> benches = {
      "fig04_polling_avail_portals",  "fig05_polling_bw_portals",
      "fig06_pww_avail_portals",      "fig07_pww_bw_portals",
      "fig08_polling_bw_gm_vs_portals", "fig09_pww_bw_gm_vs_portals",
      "fig10_pww_post_time",          "fig11_pww_wait_time",
      "fig12_pww_overhead_portals",   "fig13_pww_overhead_gm",
      "fig14_bw_vs_avail_gm",         "fig15_bw_vs_avail_portals",
      "fig16_poll_vs_pww_gm",         "fig17_mpi_test_effect"};
  std::vector<std::string> got;
  std::set<std::string> ids;
  for (const FigureRow& r : figureRows()) {
    got.push_back(r.bench);
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate id " << r.id;
    EXPECT_EQ(got.back().rfind(std::string(r.id) + "_", 0), 0u) << r.bench;
  }
  EXPECT_EQ(got, benches);
}

TEST(PaperArgs, DefaultSelectsEveryFigureInTableOrder) {
  const auto args = parse({});
  EXPECT_TRUE(args.fig.parsedOk);
  ASSERT_EQ(args.rows.size(), figureRows().size());
  EXPECT_EQ(args.rows.front(), &figureRows().front());
}

TEST(PaperArgs, FigureListRunsInTableOrder) {
  const auto args = parse({"--figure", "fig12,fig04"});
  EXPECT_TRUE(args.fig.parsedOk);
  ASSERT_EQ(args.rows.size(), 2u);
  EXPECT_STREQ(args.rows[0]->id, "fig04");
  EXPECT_STREQ(args.rows[1]->id, "fig12");
}

TEST(PaperArgs, RejectsUnknownFigure) {
  for (const char* bad : {"fig03", "fig04,fig18", "", "fig4"}) {
    const auto args = parse({"--figure", bad});
    EXPECT_FALSE(args.fig.parsedOk) << "--figure " << bad;
    EXPECT_EQ(args.fig.exitCode, 2) << "--figure " << bad;
  }
}

TEST(PaperArgs, TraceNeedsExactlyOneTracedFigure) {
  const char* path = "paper_trace_probe.json";
  // Zero traced figures selected, or several figures.
  for (const std::vector<const char*>& bad :
       {std::vector<const char*>{"--trace", path, "--figure", "fig05"},
        std::vector<const char*>{"--trace", path},
        std::vector<const char*>{"--trace", path, "--figure", "fig04,fig12"}}) {
    const auto args = parse(bad);
    EXPECT_FALSE(args.fig.parsedOk);
    EXPECT_EQ(args.fig.exitCode, 2);
  }
  for (const char* traced : {"fig04", "fig12", "fig13"}) {
    const auto args = parse({"--trace", path, "--figure", traced});
    EXPECT_TRUE(args.fig.parsedOk) << traced;
    EXPECT_EQ(args.fig.traceFile, path);
  }
  std::remove(path);
}

TEST(PaperArgs, HelpExitsZeroWithoutRunning) {
  const auto args = parse({"--help"});
  EXPECT_FALSE(args.fig.parsedOk);
  EXPECT_EQ(args.fig.exitCode, 0);
}

}  // namespace
}  // namespace comb::bench::paper
