// LatencyRecorder: global log-bucket layout invariants, deterministic
// quantiles, order-independent merges (the property that makes sharded
// runs reproduce serial distributions), and allocation-free recording.
#include "common/latency_recorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "common/metrics.hpp"

namespace {
std::atomic<std::size_t> g_allocCount{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace comb {
namespace {

TEST(LatencyRecorder, BucketLayoutIsMonotoneAndCovering) {
  const std::size_t n = LatencyRecorder::bucketCount();
  ASSERT_GT(n, 100u);
  std::uint64_t prevHigh = 0;
  for (std::size_t b = 0; b < n; ++b) {
    const std::uint64_t lo = LatencyRecorder::bucketLowTicks(b);
    const std::uint64_t hi = LatencyRecorder::bucketHighTicks(b);
    ASSERT_LT(lo, hi) << "bucket " << b;
    ASSERT_EQ(lo, prevHigh) << "gap before bucket " << b;
    prevHigh = hi;
  }
}

TEST(LatencyRecorder, BucketForAgreesWithBounds) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    // Cover the whole dynamic range: random width, then random value.
    const unsigned width = static_cast<unsigned>(rng() % 63) + 1;
    const std::uint64_t t = rng() >> (64 - width);
    const std::size_t b = LatencyRecorder::bucketFor(t);
    ASSERT_LT(b, LatencyRecorder::bucketCount());
    ASSERT_GE(t, LatencyRecorder::bucketLowTicks(b));
    ASSERT_LT(t, LatencyRecorder::bucketHighTicks(b));
  }
}

TEST(LatencyRecorder, SmallValuesAreExact) {
  LatencyRecorder r;
  r.recordTicks(3);
  r.recordTicks(5);
  r.recordTicks(5);
  r.recordTicks(60);
  EXPECT_EQ(r.count(), 4u);
  EXPECT_EQ(r.minTicks(), 3u);
  EXPECT_EQ(r.maxTicks(), 60u);
  EXPECT_EQ(r.sumTicks(), 73u);
  // Sub-kSub buckets are one tick wide; the quantile is the value itself.
  EXPECT_DOUBLE_EQ(r.quantile(0.5) * 1e9, 5.0);
  EXPECT_DOUBLE_EQ(r.quantile(1.0) * 1e9, 60.0);
  EXPECT_DOUBLE_EQ(r.quantile(0.0) * 1e9, 3.0);
}

TEST(LatencyRecorder, QuantileRelativeErrorIsBounded) {
  LatencyRecorder r;
  std::mt19937_64 rng(11);
  std::vector<std::uint64_t> ticks;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t t = 1000 + rng() % 10000000;  // 1 us .. 10 ms
    ticks.push_back(t);
    r.recordTicks(t);
  }
  std::sort(ticks.begin(), ticks.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(ticks.size())));
    const double exact = static_cast<double>(ticks[rank - 1]);
    const double est = r.quantile(q) * 1e9;
    EXPECT_NEAR(est, exact, exact / 32.0) << "q=" << q;
  }
}

TEST(LatencyRecorder, SecondsRoundTrip) {
  LatencyRecorder r;
  r.record(2e-6);  // 2 us → 2000 ticks
  EXPECT_EQ(r.maxTicks(), 2000u);
  r.record(-1.0);  // clamps to zero
  EXPECT_EQ(r.minTicks(), 0u);
  EXPECT_EQ(r.count(), 2u);
}

TEST(LatencyRecorder, TailSummary) {
  LatencyRecorder r;
  EXPECT_EQ(r.tail().count, 0u);
  EXPECT_EQ(r.tail().p999, 0.0);
  for (int i = 1; i <= 1000; ++i) r.recordTicks(static_cast<std::uint64_t>(i));
  const TailSummary t = r.tail();
  EXPECT_EQ(t.count, 1000u);
  EXPECT_NEAR(t.p50 * 1e9, 500.0, 500.0 / 16);
  EXPECT_NEAR(t.p999 * 1e9, 999.0, 999.0 / 16);
  EXPECT_NEAR(t.mean * 1e9, 500.5, 1e-6);
  EXPECT_DOUBLE_EQ(t.min * 1e9, 1.0);
  EXPECT_DOUBLE_EQ(t.max * 1e9, 1000.0);
}

// The property the sharded executor relies on: recording a stream split
// across several recorders and merging the snapshots gives byte-identical
// state to recording everything into one recorder, in any merge order.
TEST(LatencyRecorder, MergeIsOrderIndependent) {
  metrics::Registry whole, partA, partB;
  LatencyRecorder& w = whole.latency("lat");
  LatencyRecorder& a = partA.latency("lat");
  LatencyRecorder& b = partB.latency("lat");
  std::mt19937_64 rng(23);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t t = rng() % 50000000;
    w.recordTicks(t);
    (i % 3 ? a : b).recordTicks(t);
  }
  const metrics::Snapshot sw = whole.snapshot();
  const metrics::Snapshot ab =
      metrics::mergeSnapshots({partA.snapshot(), partB.snapshot()});
  const metrics::Snapshot ba =
      metrics::mergeSnapshots({partB.snapshot(), partA.snapshot()});
  ASSERT_EQ(ab.latencies.size(), 1u);
  EXPECT_EQ(ab.latencies[0].first, sw.latencies[0].first);
  EXPECT_EQ(ba.latencies[0].first, sw.latencies[0].first);
  EXPECT_EQ(ab.latencies[0].buckets, sw.latencies[0].buckets);
  EXPECT_EQ(ba.latencies[0].buckets, sw.latencies[0].buckets);
  EXPECT_EQ(ab.latencies[0].count, sw.latencies[0].count);
  EXPECT_EQ(ab.latencies[0].sumTicks, sw.latencies[0].sumTicks);
  EXPECT_EQ(ab.latencies[0].minTicks, sw.latencies[0].minTicks);
  EXPECT_EQ(ab.latencies[0].maxTicks, sw.latencies[0].maxTicks);
  EXPECT_EQ(ba.latencies[0].sumTicks, sw.latencies[0].sumTicks);
}

TEST(LatencyRecorder, MergeWithEmptySideKeepsExtrema) {
  metrics::Registry partA, partB;
  partA.latency("lat").recordTicks(100);
  partB.latency("lat");  // registered, never recorded
  const metrics::Snapshot m =
      metrics::mergeSnapshots({partB.snapshot(), partA.snapshot()});
  ASSERT_EQ(m.latencies.size(), 1u);
  EXPECT_EQ(m.latencies[0].count, 1u);
  EXPECT_EQ(m.latencies[0].minTicks, 100u);
  EXPECT_EQ(m.latencies[0].maxTicks, 100u);
  EXPECT_EQ(m.latencies[0].first, LatencyRecorder::bucketFor(100));
  ASSERT_EQ(m.latencies[0].buckets.size(), 1u);
  EXPECT_EQ(m.latencies[0].buckets[0], 1u);
}

TEST(LatencyRecorder, SteadyStateRecordingIsAllocationFree) {
  // Construction may allocate: a standalone recorder owns its bucket
  // array, and registration maps storage and inserts the name.
  LatencyRecorder standalone;
  metrics::Registry reg;
  LatencyRecorder& registered = reg.latency("lat");
  for (LatencyRecorder* r : {&standalone, &registered}) {
    r->recordTicks(1);  // warm-up
    const std::size_t before = g_allocCount.load(std::memory_order_relaxed);
    std::mt19937_64 rng(5);
    for (int i = 0; i < 100000; ++i) {
      r->recordTicks(rng() % 1000000000ull);
      r->record(1.5e-6);
    }
    (void)r->quantile(0.999);  // summaries must not allocate either
    (void)r->tail();
    const std::size_t after = g_allocCount.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "latency recording allocated in steady state";
  }
}

TEST(LatencyRecorder, RegistryFindOrCreate) {
  metrics::Registry reg;
  LatencyRecorder& r = reg.latency("mpi.n0.recv_wait");
  EXPECT_EQ(&reg.latency("mpi.n0.recv_wait"), &r);
  EXPECT_NE(&reg.latency("mpi.n1.recv_wait"), &r);
  EXPECT_EQ(reg.latencyCount(), 2u);
}

}  // namespace
}  // namespace comb
