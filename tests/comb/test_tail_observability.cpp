// Tail-latency observability contracts:
//   * per-rank latency families merge by exact prefix/suffix match,
//     never swallowing phase-scoped variants,
//   * metrics::Registry snapshots are identical under the serial and the
//     sharded executor (latency buckets byte-for-byte — the recorder
//     layout is global, so shard merge is element-wise addition),
//   * benchmark points surface identical tail summaries for any
//     --sim-jobs, and serial runs report a shard imbalance of exactly 1,
//   * `comb compare --metric-class tail` flags a p999 regression whose
//     median is unchanged — the blind spot of mean-based gating — and
//     the class filter keeps tail deltas out of mean-only gates,
//   * comparability notes fire on differing rep budgets and differing
//     archived percentile bases.
// See docs/observability.md.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "comb/compare.hpp"
#include "comb/presets.hpp"
#include "comb/runner.hpp"
#include "common/error.hpp"
#include "common/latency_recorder.hpp"
#include "common/metrics.hpp"
#include "report/archive.hpp"

namespace comb::bench {
namespace {

using backend::SimCluster;
using sim::Task;

RunOptions simJobs(int n) {
  RunOptions opts;
  opts.simJobs = n;
  return opts;
}

// ---------------------------------------------------------------------
// mergeLatencyFamily

TEST(MergeLatencyFamily, MergesRanksAndExcludesPhaseScoped) {
  metrics::Registry reg;
  reg.latency("mpi.n0.send_latency").record(1e-6);
  reg.latency("mpi.n0.send_latency").record(2e-6);
  reg.latency("mpi.n1.send_latency").record(3e-6);
  // Phase-scoped variants and other families must not be swallowed.
  reg.latency("mpi.n0.send_latency.work").record(7e-6);
  reg.latency("mpi.n0.recv_latency").record(9e-6);

  const auto snap = reg.snapshot();
  const auto merged =
      metrics::mergeLatencyFamily(snap, "mpi.n", ".send_latency");
  EXPECT_EQ(merged.count, 3u);
  const auto tail = merged.tail();
  EXPECT_NEAR(tail.min, 1e-6, 1e-9);
  EXPECT_NEAR(tail.max, 3e-6, 3e-8);
  EXPECT_NEAR(tail.mean, 2e-6, 1e-9);
}

TEST(MergeLatencyFamily, EmptyWhenNothingMatches) {
  metrics::Registry reg;
  reg.latency("mpi.n0.send_latency.work").record(1e-6);
  const auto merged =
      metrics::mergeLatencyFamily(reg.snapshot(), "mpi.n", ".send_latency");
  EXPECT_EQ(merged.count, 0u);
  EXPECT_EQ(merged.tail().p999, 0.0);
}

// ---------------------------------------------------------------------
// Registry snapshots under the sharded executor

/// K rounds of ring traffic: rank r sends to r+1 and receives from r-1.
/// Eager-sized messages, so the ring never deadlocks.
Task<void> ringProc(backend::SimProc& p, int peers, int rounds) {
  auto& mpi = p.mpi();
  const int next = (mpi.rank() + 1) % peers;
  const int prev = (mpi.rank() + peers - 1) % peers;
  for (int i = 0; i < rounds; ++i) {
    co_await mpi.send(mpi.world(), next, i, 2048);
    co_await mpi.recv(mpi.world(), prev, i, 2048);
    co_await p.work(10'000);
  }
}

metrics::Snapshot ringSnapshot(int shards) {
  SimCluster cluster(backend::gmMachine(), 4, shards);
  for (int r = 0; r < 4; ++r)
    cluster.launch(r, ringProc(cluster.proc(r), 4, 8));
  cluster.run();
  return cluster.metricsSnapshot();
}

/// The executor's self-metrics (exec.*) legitimately depend on the shard
/// count (per-shard occupancy histograms, wall-clock barrier waits);
/// everything else must not.
bool shardDependent(const std::string& name) {
  return name.rfind("exec.", 0) == 0;
}

void expectSameSnapshot(const metrics::Snapshot& a,
                        const metrics::Snapshot& b) {
  const auto findCounter =
      [](const metrics::Snapshot& s,
         const std::string& name) -> const metrics::CounterSample* {
    for (const auto& c : s.counters)
      if (c.name == name) return &c;
    return nullptr;
  };
  const auto findHistogram =
      [](const metrics::Snapshot& s,
         const std::string& name) -> const metrics::HistogramSample* {
    for (const auto& h : s.histograms)
      if (h.name == name) return &h;
    return nullptr;
  };
  for (const auto& ca : a.counters) {
    if (shardDependent(ca.name)) continue;
    const auto* cb = findCounter(b, ca.name);
    ASSERT_NE(cb, nullptr) << ca.name;
    EXPECT_EQ(ca.value, cb->value) << ca.name;
  }
  for (const auto& ha : a.histograms) {
    if (shardDependent(ha.name)) continue;
    const auto* hb = findHistogram(b, ha.name);
    ASSERT_NE(hb, nullptr) << ha.name;
    EXPECT_EQ(ha.counts, hb->counts) << ha.name;
    EXPECT_EQ(ha.total, hb->total) << ha.name;
  }
  for (const auto& la : a.latencies) {
    if (shardDependent(la.name)) continue;
    const auto* lb = b.latency(la.name);
    ASSERT_NE(lb, nullptr) << la.name;
    EXPECT_EQ(la.first, lb->first) << la.name;
    EXPECT_EQ(la.buckets, lb->buckets) << la.name;
    EXPECT_EQ(la.count, lb->count) << la.name;
    EXPECT_EQ(la.sumTicks, lb->sumTicks) << la.name;
    EXPECT_EQ(la.minTicks, lb->minTicks) << la.name;
    EXPECT_EQ(la.maxTicks, lb->maxTicks) << la.name;
  }
}

TEST(TailObservability, RegistrySnapshotShardInvariant) {
  const auto serial = ringSnapshot(1);
  // The run must actually have recorded per-message latencies.
  bool sawLatency = false;
  for (const auto& l : serial.latencies)
    sawLatency = sawLatency || (l.count > 0 && !shardDependent(l.name));
  EXPECT_TRUE(sawLatency);
  for (const int shards : {2, 4}) {
    const auto sharded = ringSnapshot(shards);
    expectSameSnapshot(serial, sharded);
    expectSameSnapshot(sharded, serial);  // same instrument coverage
  }
}

// ---------------------------------------------------------------------
// Point-level tail summaries

void expectSameTail(const TailSummary& a, const TailSummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.p50, b.p50);
  EXPECT_EQ(a.p90, b.p90);
  EXPECT_EQ(a.p99, b.p99);
  EXPECT_EQ(a.p999, b.p999);
}

TEST(TailObservability, PollingPointTailsShardInvariant) {
  auto params = presets::pollingBase(100 * 1024);
  params.targetDuration = 3e-3;
  params.maxPolls = 5'000;
  const auto serial = runPoint(backend::gmMachine(), params);
  const auto sharded =
      runPoint(backend::gmMachine(), params, simJobs(2));
  EXPECT_GT(serial.sendTail.count, 0u);
  EXPECT_GT(serial.recvTail.count, 0u);
  expectSameTail(serial.sendTail, sharded.sendTail);
  expectSameTail(serial.recvTail, sharded.recvTail);
  EXPECT_EQ(serial.shardImbalance, 1.0);
  EXPECT_GE(sharded.shardImbalance, 1.0);
}

// ---------------------------------------------------------------------
// Tail gating in `comb compare`

report::ArchiveMetric metric(const std::string& name, bool higherIsBetter,
                             const std::string& cls, double sample) {
  report::ArchiveMetric m;
  m.name = name;
  m.higherIsBetter = higherIsBetter;
  m.metricClass = cls;
  m.samples = {sample};
  return m;
}

/// A one-sweep, one-point archive: stable median + bandwidth, with the
/// given p50/p999 receive-latency samples.
report::Archive tailArchive(double p50us, double p999us) {
  report::Archive a;
  a.bench = "tail_gate";
  a.provenance = report::buildProvenance();
  a.provenance.tailPercentiles = report::kTailPercentiles;
  a.rep.reps = 1;
  report::ArchiveSweep sweep;
  sweep.id = "noise/gm";
  sweep.xlabel = "noise_burst_us";
  sweep.machine = "gm";
  sweep.machineHash = "c0ffee";
  report::ArchivePoint point;
  point.x = 20.0;
  point.metrics.push_back(metric("bandwidth_MBps", true, "mean", 100.0));
  point.metrics.push_back(metric("recv_p50_us", false, "tail", p50us));
  point.metrics.push_back(metric("recv_p999_us", false, "tail", p999us));
  sweep.points.push_back(std::move(point));
  a.sweeps.push_back(std::move(sweep));
  return a;
}

TEST(TailGating, FlagsP999RegressionWithUnchangedMedian) {
  const auto baseline = tailArchive(10.0, 100.0);
  const auto candidate = tailArchive(10.0, 150.0);  // median flat, tail +50%

  CompareOptions tailOnly;
  tailOnly.metricClass = MetricClass::Tail;
  const auto report = compareArchives(baseline, candidate, tailOnly);
  EXPECT_TRUE(report.hasRegressions());
  bool p999Flagged = false, p50Flagged = false, sawMean = false;
  for (const auto& row : report.rows) {
    if (row.metric == "recv_p999_us")
      p999Flagged = row.verdict == Verdict::Regressed;
    if (row.metric == "recv_p50_us")
      p50Flagged = row.verdict != Verdict::Ok;
    sawMean = sawMean || row.metric == "bandwidth_MBps";
  }
  EXPECT_TRUE(p999Flagged);
  EXPECT_FALSE(p50Flagged);
  EXPECT_FALSE(sawMean) << "tail gate must not count mean metrics";

  // The same pair under a mean-only gate is clean: the regression is
  // invisible to central-tendency metrics by construction.
  CompareOptions meanOnly;
  meanOnly.metricClass = MetricClass::Mean;
  EXPECT_FALSE(compareArchives(baseline, candidate, meanOnly)
                   .hasRegressions());
  EXPECT_TRUE(compareArchives(baseline, candidate).hasRegressions());
}

TEST(TailGating, UnclassedMetricsGateAsMean) {
  // Archives written before the metric-class field default to "mean".
  auto baseline = tailArchive(10.0, 100.0);
  auto candidate = tailArchive(10.0, 100.0);
  for (auto* a : {&baseline, &candidate})
    for (auto& m : a->sweeps[0].points[0].metrics) m.metricClass.clear();
  candidate.sweeps[0].points[0].metrics[0].samples = {50.0};  // bw halved

  CompareOptions meanOnly;
  meanOnly.metricClass = MetricClass::Mean;
  EXPECT_TRUE(compareArchives(baseline, candidate, meanOnly)
                  .hasRegressions());
  CompareOptions tailOnly;
  tailOnly.metricClass = MetricClass::Tail;
  const auto report = compareArchives(baseline, candidate, tailOnly);
  EXPECT_FALSE(report.hasRegressions());
  EXPECT_TRUE(report.rows.empty());
}

TEST(TailGating, ParseMetricClassRoundTripsAndRejects) {
  EXPECT_EQ(parseMetricClass("all"), MetricClass::All);
  EXPECT_EQ(parseMetricClass("mean"), MetricClass::Mean);
  EXPECT_EQ(parseMetricClass("tail"), MetricClass::Tail);
  EXPECT_STREQ(metricClassName(MetricClass::Tail), "tail");
  EXPECT_THROW(parseMetricClass("p99"), ConfigError);
}

bool hasNote(const CompareReport& report, const std::string& needle) {
  for (const auto& n : report.notes)
    if (n.find(needle) != std::string::npos) return true;
  return false;
}

TEST(TailGating, NotesRepCountAndPercentileBaseMismatches) {
  auto baseline = tailArchive(10.0, 100.0);
  auto candidate = tailArchive(10.0, 100.0);
  EXPECT_FALSE(hasNote(compareArchives(baseline, candidate),
                       "rep counts differ"));

  candidate.rep.reps = 5;
  candidate.provenance.tailPercentiles = "p50,p95,p99";
  const auto report = compareArchives(baseline, candidate);
  EXPECT_TRUE(hasNote(report, "rep counts differ"));
  EXPECT_TRUE(hasNote(report, "tail percentile bases differ"));
  // Notes are informational: nothing regressed here.
  EXPECT_FALSE(report.hasRegressions());

  // Pre-tail archives (no recorded percentile base) stay silent.
  candidate.rep.reps = 1;
  candidate.provenance.tailPercentiles.clear();
  EXPECT_FALSE(hasNote(compareArchives(baseline, candidate),
                       "tail percentile bases differ"));
}

}  // namespace
}  // namespace comb::bench
