#include "comb/compare.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "report/archive.hpp"

namespace comb::bench {
namespace {

report::Archive archiveWith(const std::string& sweepId,
                            const std::string& metric, bool higherIsBetter,
                            std::vector<std::vector<double>> samplesPerPoint,
                            const std::string& machineHash = "feedc0de") {
  report::Archive a;
  a.bench = "test_bench";
  a.seed = 1;
  a.provenance.gitSha = "cafe";
  report::ArchiveSweep s;
  s.id = sweepId;
  s.xlabel = "x";
  s.machine = "gm";
  s.machineHash = machineHash;
  double x = 1.0;
  for (auto& samples : samplesPerPoint) {
    report::ArchivePoint p;
    p.x = x++;
    report::ArchiveMetric m;
    m.name = metric;
    m.higherIsBetter = higherIsBetter;
    m.samples = std::move(samples);
    p.metrics.push_back(std::move(m));
    s.points.push_back(std::move(p));
  }
  a.sweeps.push_back(std::move(s));
  return a;
}

TEST(Compare, IdenticalArchivesHaveNoFlags) {
  const auto a = archiveWith("s", "bw", true,
                             {{50, 51, 49, 50.5, 49.5}, {20, 21, 19, 20, 20}});
  const auto report = compareArchives(a, a, {});
  EXPECT_FALSE(report.hasRegressions());
  EXPECT_EQ(report.regressed, 0);
  EXPECT_EQ(report.improved, 0);
  EXPECT_EQ(report.rows.size(), 2u);
  for (const auto& row : report.rows) {
    EXPECT_EQ(row.verdict, Verdict::Ok);
    EXPECT_DOUBLE_EQ(row.relDelta, 0.0);
  }
}

TEST(Compare, DetectsInjectedSlowdown) {
  const auto base = archiveWith("s", "bw", true,
                                {{50, 51, 49, 50.5, 49.5},
                                 {20, 21, 19, 20, 20}});
  // Second point 30% slower; first unchanged.
  const auto cand = archiveWith("s", "bw", true,
                                {{50, 51, 49, 50.5, 49.5},
                                 {14, 14.7, 13.3, 14, 14}});
  const auto report = compareArchives(base, cand, {});
  EXPECT_TRUE(report.hasRegressions());
  EXPECT_EQ(report.regressed, 1);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].verdict, Verdict::Ok);
  EXPECT_EQ(report.rows[1].verdict, Verdict::Regressed);
  EXPECT_DOUBLE_EQ(report.rows[1].x, 2.0);  // names the regressed point
  EXPECT_LT(report.rows[1].relDelta, -0.25);
  EXPECT_EQ(report.rows[1].basis, "mwu");
}

TEST(Compare, DirectionAwareForLowerIsBetter) {
  const auto base = archiveWith("s", "latency_us", false,
                                {{10, 10.2, 9.8, 10, 10.1}});
  const auto worse = archiveWith("s", "latency_us", false,
                                 {{15, 15.2, 14.8, 15, 15.1}});
  EXPECT_TRUE(compareArchives(base, worse, {}).hasRegressions());
  // The same shift in a higher-is-better metric is an improvement.
  const auto baseBw = archiveWith("s", "bw", true, {{10, 10.2, 9.8, 10, 10.1}});
  const auto moreBw = archiveWith("s", "bw", true, {{15, 15.2, 14.8, 15, 15.1}});
  const auto report = compareArchives(baseBw, moreBw, {});
  EXPECT_FALSE(report.hasRegressions());
  EXPECT_EQ(report.improved, 1);
}

TEST(Compare, ToleranceSuppressesSmallShifts) {
  const auto base = archiveWith("s", "bw", true, {{100, 100, 100, 100, 100}});
  const auto cand = archiveWith("s", "bw", true, {{99, 99, 99, 99, 99}});
  CompareOptions opts;
  opts.tolerance = 0.02;  // 1% shift is inside the band
  EXPECT_FALSE(compareArchives(base, cand, opts).hasRegressions());
  opts.tolerance = 0.005;
  EXPECT_TRUE(compareArchives(base, cand, opts).hasRegressions());
}

TEST(Compare, SingleRepUsesExactBasis) {
  const auto base = archiveWith("s", "bw", true, {{100}});
  const auto cand = archiveWith("s", "bw", true, {{90}});
  const auto report = compareArchives(base, cand, {});
  ASSERT_EQ(report.rows.size(), 1u);
  EXPECT_EQ(report.rows[0].basis, "exact");
  EXPECT_EQ(report.rows[0].verdict, Verdict::Regressed);
  // Identical single reps: no flag.
  EXPECT_FALSE(compareArchives(base, base, {}).hasRegressions());
}

TEST(Compare, UnmatchedStructureLandsInNotes) {
  const auto base = archiveWith("only_in_base", "bw", true, {{1, 1, 1}});
  const auto cand = archiveWith("only_in_cand", "bw", true, {{1, 1, 1}});
  const auto report = compareArchives(base, cand, {});
  EXPECT_TRUE(report.rows.empty());
  ASSERT_EQ(report.notes.size(), 2u);
  EXPECT_NE(report.notes[0].find("only_in_base"), std::string::npos);
  EXPECT_NE(report.notes[1].find("only_in_cand"), std::string::npos);
}

TEST(Compare, MachineHashMismatchIsNoted) {
  const auto base = archiveWith("s", "bw", true, {{1, 1, 1}}, "aaaa");
  const auto cand = archiveWith("s", "bw", true, {{1, 1, 1}}, "bbbb");
  const auto report = compareArchives(base, cand, {});
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes.back().find("machine models differ"),
            std::string::npos);
}

TEST(Compare, XLabelMismatchIsNoted) {
  const auto base = archiveWith("s", "bw", true, {{1, 1, 1}});
  auto cand = base;
  cand.sweeps[0].xlabel = "noise_burst_us";
  const auto report = compareArchives(base, cand, {});
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find("x-labels differ"), std::string::npos);
  EXPECT_NE(report.notes[0].find("noise_burst_us"), std::string::npos);
  EXPECT_EQ(report.rows.size(), 1u);  // still compared point by point
}

TEST(Compare, CrossCoreConfigurationIsNoted) {
  const auto base = archiveWith("s", "bw", true, {{1, 1, 1}});
  auto cand = base;
  cand.provenance.simJobs = 4;
  cand.provenance.lookahead = 1.5e-6;
  cand.provenance.lookaheadSource = "matrix";
  cand.provenance.simAffinity = "compact";
  const auto report = compareArchives(base, cand, {});
  // Still comparable (no rows dropped), but every configuration
  // difference is called out: shard count, window bounds, affinity.
  EXPECT_EQ(report.rows.size(), 1u);
  ASSERT_EQ(report.notes.size(), 3u);
  EXPECT_NE(report.notes[0].find("--sim-jobs"), std::string::npos);
  EXPECT_NE(report.notes[1].find("window bounds differ"), std::string::npos);
  EXPECT_NE(report.notes[1].find("matrix"), std::string::npos);
  EXPECT_NE(report.notes[2].find("--sim-affinity"), std::string::npos);
  // Identical configurations stay silent.
  EXPECT_TRUE(compareArchives(base, base, {}).notes.empty());
}

// Each provenance row changed on its own gives exactly one note when its
// compare policy notes it, and none when it is silent.
TEST(Compare, EachProvenanceRowNotesOnItsOwn) {
  auto base = archiveWith("s", "bw", true, {{1, 1, 1}});
  for (const auto& f : report::provenanceFields())  // all non-empty
    std::visit(
        [&](auto m) {
          auto& v = base.provenance.*m;
          if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                       std::string>)
            v = std::string("v-") + f.key;
        },
        f.member);
  std::vector<std::string> silent;
  for (const auto& f : report::provenanceFields()) {
    SCOPED_TRACE(f.key);
    auto cand = base;
    std::visit(
        [&](auto m) {
          auto& v = cand.provenance.*m;
          if constexpr (std::is_same_v<std::remove_cvref_t<decltype(v)>,
                                       std::string>)
            v += "-changed";
          else
            v += 1;
        },
        f.member);
    const auto notes = compareArchives(base, cand, {}).notes;
    if (f.compare == report::ProvenanceCompare::Silent) {
      EXPECT_TRUE(notes.empty());
      silent.push_back(f.key);
      continue;
    }
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_EQ(notes[0].rfind(f.label, 0), 0u) << notes[0];
    if (f.compare == report::ProvenanceCompare::NoteIfBothSet) {
      // An archive written before the field existed leaves it empty.
      auto legacy = base;
      std::visit(
          [&](auto m) {
            if constexpr (std::is_same_v<
                              std::remove_cvref_t<decltype(legacy.provenance.*m)>,
                              std::string>)
              (legacy.provenance.*m).clear();
          },
          f.member);
      EXPECT_TRUE(compareArchives(legacy, cand, {}).notes.empty());
    }
  }
  EXPECT_EQ(silent, (std::vector<std::string>{"suite", "build_flags",
                                              "shard_imbalance"}));
}

TEST(Compare, RejectsBadOptions) {
  const auto a = archiveWith("s", "bw", true, {{1}});
  CompareOptions opts;
  opts.tolerance = -0.1;
  EXPECT_THROW(compareArchives(a, a, opts), ConfigError);
  opts.tolerance = 0.02;
  opts.alpha = 1.5;
  EXPECT_THROW(compareArchives(a, a, opts), ConfigError);
}

TEST(Compare, BenchJsonGate) {
  const auto doc = json::parse(R"({
    "baseline": {
      "benchmarks": {"BM_Fast": {"items_per_second": 1000000.0}},
      "figure_wallclock_seconds": {"fig04": 6.5}
    },
    "current": {
      "benchmarks": {"BM_Fast": {"items_per_second": 500000.0}},
      "figure_wallclock_seconds": {"fig04": 6.5}
    }
  })");
  const auto report = compareBenchJson(doc, {});
  EXPECT_TRUE(report.hasRegressions());
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].metric, "BM_Fast");
  EXPECT_EQ(report.rows[0].verdict, Verdict::Regressed);
  EXPECT_EQ(report.rows[1].verdict, Verdict::Ok);
}

TEST(Compare, BenchJsonWallclockIsLowerBetter) {
  const auto doc = json::parse(R"({
    "baseline": {"figure_wallclock_seconds": {"fig04": 4.0}},
    "current":  {"figure_wallclock_seconds": {"fig04": 6.0}}
  })");
  EXPECT_TRUE(compareBenchJson(doc, {}).hasRegressions());
  const auto faster = json::parse(R"({
    "baseline": {"figure_wallclock_seconds": {"fig04": 6.0}},
    "current":  {"figure_wallclock_seconds": {"fig04": 4.0}}
  })");
  const auto report = compareBenchJson(faster, {});
  EXPECT_FALSE(report.hasRegressions());
  EXPECT_EQ(report.improved, 1);
}

TEST(Compare, BenchJsonNeedsBothBlocks) {
  EXPECT_THROW(compareBenchJson(json::parse(R"({"baseline": {}})"), {}),
               ConfigError);
}

TEST(Compare, RenderListsFlaggedRowsAndSummary) {
  const auto base = archiveWith("s", "bw", true, {{100}, {200}});
  const auto cand = archiveWith("s", "bw", true, {{50}, {200}});
  const auto report = compareArchives(base, cand, {});
  std::ostringstream out;
  renderCompare(out, report, /*all=*/false);
  EXPECT_NE(out.str().find("REGRESSED"), std::string::npos);
  EXPECT_NE(out.str().find("1 regressed"), std::string::npos);
  // Non-flagged rows only appear with all=true.
  EXPECT_EQ(out.str().find("200"), std::string::npos);
  std::ostringstream outAll;
  renderCompare(outAll, report, /*all=*/true);
  EXPECT_NE(outAll.str().find("200"), std::string::npos);
}

}  // namespace
}  // namespace comb::bench
