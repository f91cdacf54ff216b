// metrics::Registry: find-or-create counters/histograms with stable
// references, sorted snapshots, consuming snapshot merges, range-bounded
// latency reductions, and the JSON export format.
#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"

namespace comb::metrics {
namespace {

TEST(Metrics, CounterFindOrCreate) {
  Registry reg;
  Counter& c = reg.counter("nic.n0.sent");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  // Same name → same counter; different name → a fresh one.
  EXPECT_EQ(&reg.counter("nic.n0.sent"), &c);
  EXPECT_NE(&reg.counter("nic.n1.sent"), &c);
  EXPECT_EQ(reg.counterCount(), 2u);
}

TEST(Metrics, CounterReferencesSurviveGrowth) {
  Registry reg;
  Counter& first = reg.counter("a");
  for (int i = 0; i < 100; ++i)
    reg.counter("filler." + std::to_string(i)).add();
  first.add(7);
  EXPECT_EQ(reg.counter("a").value(), 7u);  // same object, not a copy
}

TEST(Metrics, EmptyNameRejected) {
  Registry reg;
  EXPECT_THROW(reg.counter(""), ConfigError);
  EXPECT_THROW(reg.histogram("", 0, 1, 4), ConfigError);
}

TEST(Metrics, HistogramFindOrCreate) {
  Registry reg;
  Histogram& h = reg.histogram("lat", 0.0, 10.0, 5);
  h.add(1.0);
  h.add(11.0);  // overflow
  EXPECT_EQ(&reg.histogram("lat", 0.0, 10.0, 5), &h);
  EXPECT_EQ(reg.histogramCount(), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(Metrics, SnapshotIsSortedAndQueryable) {
  Registry reg;
  reg.counter("zeta").add(3);
  reg.counter("alpha").add(1);
  reg.counter("mid.dle").add(2);
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "alpha");
  EXPECT_EQ(snap.counters[1].name, "mid.dle");
  EXPECT_EQ(snap.counters[2].name, "zeta");
  EXPECT_EQ(snap.counterValue("zeta"), 3u);
  EXPECT_EQ(snap.counterValue("missing"), 0u);
  EXPECT_FALSE(snap.empty());
  EXPECT_TRUE(Snapshot{}.empty());
}

TEST(Metrics, SnapshotIsACopy) {
  Registry reg;
  Counter& c = reg.counter("x");
  c.add(1);
  const Snapshot snap = reg.snapshot();
  c.add(10);
  EXPECT_EQ(snap.counterValue("x"), 1u);  // not live
  EXPECT_EQ(reg.snapshot().counterValue("x"), 11u);
}

// Same-named histograms share one layout, so a merge is bin-wise and
// exact; a mismatch is a wiring error, rejected at registration within one
// registry and at merge time across shards.
TEST(Metrics, HistogramLayoutMismatchIsRejected) {
  Registry a, b;
  a.histogram("h", 0.0, 100.0, 10).add(15.0);
  EXPECT_THROW(a.histogram("h", 0.0, 50.0, 10), ConfigError);
  EXPECT_THROW(a.histogram("h", 0.0, 100.0, 20), ConfigError);
  b.histogram("h", 0.0, 50.0, 50).add(15.5);
  EXPECT_THROW(mergeSnapshots({a.snapshot(), b.snapshot()}), ConfigError);
}

// A sample's stored range expanded into the full global layout.
std::vector<std::uint64_t> denseBuckets(const LatencySample& s) {
  std::vector<std::uint64_t> out(LatencyRecorder::bucketCount(), 0);
  EXPECT_LE(s.first + s.buckets.size(), out.size()) << s.name;
  std::copy(s.buckets.begin(), s.buckets.end(),
            out.begin() + static_cast<std::ptrdiff_t>(s.first));
  return out;
}

// mergeSnapshots consumes its parts: the first part to name an instrument
// hands it over, and later parts fold into it. One name per instrument
// kind sits in all three parts; every order must give the hand-computed
// result (a merge that reads a moved-from sample loses its buckets).
TEST(Metrics, ConsumingMergeMatchesHandComputedInEveryOrder) {
  std::vector<Registry> regs(3);
  Registry& a = regs[0];
  Registry& b = regs[1];
  Registry& c = regs[2];
  a.counter("c.sum").add(3);
  b.counter("c.sum").add(5);
  c.counter("c.sum").add(7);
  a.counter("c.max", MergeKind::Max).raiseTo(4);
  b.counter("c.max", MergeKind::Max).raiseTo(9);
  c.counter("c.max", MergeKind::Max).raiseTo(2);
  a.histogram("h.same", 0.0, 10.0, 5).add(1.0);
  b.histogram("h.same", 0.0, 10.0, 5).add(3.0);
  b.histogram("h.same", 0.0, 10.0, 5).add(3.0);
  c.histogram("h.same", 0.0, 10.0, 5).add(12.0);
  c.histogram("h.same", 0.0, 10.0, 5).add(-1.0);
  a.latency("lat").recordTicks(5);
  a.latency("lat").recordTicks(1000);
  b.latency("lat");  // registered, never recorded
  c.latency("lat").recordTicks(70);
  c.latency("lat").recordTicks(2000000);

  std::vector<std::uint64_t> latBuckets(LatencyRecorder::bucketCount(), 0);
  for (const std::uint64_t t : {5, 70, 1000, 2000000})
    ++latBuckets[LatencyRecorder::bucketFor(t)];

  std::vector<std::size_t> order = {0, 1, 2};
  do {
    std::vector<Snapshot> parts;
    for (const std::size_t i : order) parts.push_back(regs[i].snapshot());
    const Snapshot m = mergeSnapshots(std::move(parts));
    SCOPED_TRACE(testing::Message() << "order " << order[0] << order[1]
                                    << order[2]);

    ASSERT_EQ(m.counters.size(), 2u);
    EXPECT_EQ(m.counters[0].name, "c.max");
    EXPECT_EQ(m.counters[0].value, 9u);
    EXPECT_EQ(m.counters[0].merge, MergeKind::Max);
    EXPECT_EQ(m.counters[1].name, "c.sum");
    EXPECT_EQ(m.counters[1].value, 15u);

    ASSERT_EQ(m.histograms.size(), 1u);
    const HistogramSample& same = m.histograms[0];
    EXPECT_EQ(same.name, "h.same");
    EXPECT_EQ(same.counts, (std::vector<std::size_t>{1, 2, 0, 0, 0}));
    EXPECT_EQ(same.underflow, 1u);
    EXPECT_EQ(same.overflow, 1u);
    EXPECT_EQ(same.total, 5u);

    ASSERT_EQ(m.latencies.size(), 1u);
    const LatencySample& lat = m.latencies[0];
    EXPECT_EQ(lat.name, "lat");
    EXPECT_EQ(denseBuckets(lat), latBuckets);
    EXPECT_EQ(lat.count, 4u);
    EXPECT_EQ(lat.sumTicks, 2001075u);
    EXPECT_EQ(lat.minTicks, 5u);
    EXPECT_EQ(lat.maxTicks, 2000000u);
  } while (std::next_permutation(order.begin(), order.end()));
}

// A destroyed registry hands its bucket storage on to the next one; the
// next registry's recorders must still start out empty.
TEST(Metrics, RecycledLatencyStorageStartsZeroed) {
  for (int round = 0; round < 3; ++round) {
    Registry reg;
    for (int i = 0; i < 200; ++i) {
      LatencyRecorder& r = reg.latency("lat." + std::to_string(i));
      const auto dense = r.buckets();
      ASSERT_TRUE(std::all_of(dense.begin(), dense.end(),
                              [](std::uint64_t c) { return c == 0; }))
          << "round " << round << " recorder " << i;
      r.recordTicks(static_cast<std::uint64_t>(i));
      r.recordTicks(1000000ull * static_cast<std::uint64_t>(i + 1));
    }
  }
}

// Sweep workers build and destroy registries concurrently, passing spare
// bucket storage between threads.
TEST(Metrics, RegistriesOnSeveralThreadsStartZeroed) {
  std::atomic<int> dirty{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w)
    workers.emplace_back([&dirty, w] {
      for (int round = 0; round < 20; ++round) {
        Registry reg;
        for (int i = 0; i < 100; ++i) {
          LatencyRecorder& r = reg.latency("lat." + std::to_string(i));
          const auto dense = r.buckets();
          if (!std::all_of(dense.begin(), dense.end(),
                           [](std::uint64_t c) { return c == 0; }))
            dirty.fetch_add(1);
          r.recordTicks(static_cast<std::uint64_t>(1000 * (w + 1) + i));
        }
      }
    });
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(dirty.load(), 0);
}

// Snapshots store exactly [bucketFor(min), bucketFor(max)]: at the
// extreme ends of the layout that range must still hold every count of
// the recorder's dense view, and an empty recorder stores nothing.
TEST(Metrics, LatencySnapshotCopiesEdgeRangesExactly) {
  const std::uint64_t clamped = LatencyRecorder::toTicks(1e30);
  ASSERT_EQ(clamped, 9000000000000000000ull);
  const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
  ASSERT_EQ(LatencyRecorder::bucketFor(top),
            LatencyRecorder::bucketCount() - 1);
  const std::vector<std::vector<std::uint64_t>> cases = {
      {}, {0, 0}, {clamped}, {0, clamped, clamped}, {top}};
  for (const auto& ticks : cases) {
    Registry reg;
    LatencyRecorder& r = reg.latency("lat");
    for (const std::uint64_t t : ticks) r.recordTicks(t);
    const Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.latencies.size(), 1u);
    const LatencySample& s = snap.latencies[0];
    const auto dense = r.buckets();
    const auto [first, end] =
        LatencyRecorder::bucketRange(r.count(), r.minTicks(), r.maxTicks());
    EXPECT_EQ(s.first, first) << ticks.size() << " samples";
    EXPECT_TRUE(std::equal(s.buckets.begin(), s.buckets.end(),
                           dense.begin() + static_cast<std::ptrdiff_t>(first),
                           dense.begin() + static_cast<std::ptrdiff_t>(end)))
        << ticks.size() << " samples";
    const auto zero = [](std::uint64_t c) { return c == 0; };
    EXPECT_TRUE(std::all_of(dense.begin(),
                            dense.begin() + static_cast<std::ptrdiff_t>(first),
                            zero));
    EXPECT_TRUE(std::all_of(dense.begin() + static_cast<std::ptrdiff_t>(end),
                            dense.end(), zero));
    if (ticks.empty()) {
      EXPECT_EQ(s.first, 0u);
      EXPECT_TRUE(s.buckets.empty());
    }
    EXPECT_EQ(s.count, ticks.size());
    EXPECT_EQ(s.minTicks, r.minTicks());
    EXPECT_EQ(s.maxTicks, r.maxTicks());
    const TailSummary fromSnap = s.tail();
    const TailSummary fromRecorder = r.tail();
    EXPECT_EQ(fromSnap.p50, fromRecorder.p50);
    EXPECT_EQ(fromSnap.p999, fromRecorder.p999);
    EXPECT_EQ(fromSnap.max, fromRecorder.max);
  }
}

// Brute-force reference: the ceil(q * count)-th sample's bucket midpoint,
// scanning the whole layout from bucket 0.
double bruteQuantile(const std::vector<std::uint64_t>& buckets,
                     std::uint64_t count, double q) {
  if (count == 0) return 0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))),
      1, count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= rank) {
      const std::uint64_t lo = LatencyRecorder::bucketLowTicks(b);
      const std::uint64_t hi = LatencyRecorder::bucketHighTicks(b);
      return LatencyRecorder::ticksToSeconds(lo + (hi - lo) / 2);
    }
  }
  ADD_FAILURE() << "bucket counts disagree with count";
  return 0;
}

// Fills `r` with a random sample set spanning the whole dynamic range,
// empty about one time in four; returns the raw ticks.
std::vector<std::uint64_t> fillRandom(LatencyRecorder& r,
                                      std::mt19937_64& rng) {
  std::vector<std::uint64_t> ticks;
  const std::size_t n = rng() % 4 == 0 ? 0 : 1 + rng() % 40;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned width = static_cast<unsigned>(rng() % 64);  // 0 => tick 0
    const std::uint64_t t = width == 0 ? 0 : rng() >> (64 - width);
    ticks.push_back(t);
    r.recordTicks(t);
  }
  return ticks;
}

// latencyTail and mergeLatencyFamily read only each sample's own bucket
// range; they must agree with a scan of the full layout on any input.
TEST(Metrics, RangeBoundedLatencyReductionMatchesFullScan) {
  std::mt19937_64 rng(0x5eed);
  for (int trial = 0; trial < 200; ++trial) {
    Registry reg;
    const std::size_t members = 1 + rng() % 6;
    std::vector<std::uint64_t> all;
    for (std::size_t m = 0; m < members; ++m) {
      LatencyRecorder& r = reg.latency("mpi.n" + std::to_string(m) + ".lat");
      const auto ticks = fillRandom(r, rng);
      all.insert(all.end(), ticks.begin(), ticks.end());
      const std::vector<std::uint64_t> dense(r.buckets().begin(),
                                             r.buckets().end());
      for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0})
        ASSERT_EQ(r.quantile(q), bruteQuantile(dense, r.count(), q))
            << "trial " << trial << " q=" << q;
    }
    const Snapshot snap = reg.snapshot();
    const LatencySample merged = mergeLatencyFamily(snap, "mpi.n", ".lat");

    std::vector<std::uint64_t> expect(LatencyRecorder::bucketCount(), 0);
    for (const std::uint64_t t : all) ++expect[LatencyRecorder::bucketFor(t)];
    ASSERT_EQ(merged.buckets, expect) << "trial " << trial;
    ASSERT_EQ(merged.count, all.size());
    const TailSummary t = merged.tail();
    EXPECT_EQ(t.count, all.size());
    if (all.empty()) {
      EXPECT_EQ(t.p50, 0.0);
      EXPECT_EQ(t.max, 0.0);
      continue;
    }
    const auto [lo, hi] = std::minmax_element(all.begin(), all.end());
    EXPECT_EQ(t.min, LatencyRecorder::ticksToSeconds(*lo));
    EXPECT_EQ(t.max, LatencyRecorder::ticksToSeconds(*hi));
    EXPECT_EQ(t.p50, bruteQuantile(expect, all.size(), 0.50));
    EXPECT_EQ(t.p90, bruteQuantile(expect, all.size(), 0.90));
    EXPECT_EQ(t.p99, bruteQuantile(expect, all.size(), 0.99));
    EXPECT_EQ(t.p999, bruteQuantile(expect, all.size(), 0.999));
  }
}

// A snapshot's counter names, in order.
std::vector<std::string> counterNames(const Snapshot& s) {
  std::vector<std::string> out;
  for (const CounterSample& c : s.counters) out.push_back(c.name);
  return out;
}

// The shard merge is a k-way walk over name-sorted parts: interleaved and
// disjoint names, an empty part, and a name only the last part carries
// must all come out sorted with each name once, for 2, 3 and 4 parts.
TEST(Metrics, LinearMergeInterleavesDisjointAndEmptyParts) {
  std::vector<Registry> regs(4);
  for (const char* n : {"a", "c", "e"}) regs[0].counter(n).add(1);
  for (const char* n : {"b", "c", "d"}) regs[1].counter(n).add(10);
  // regs[2] stays empty.
  regs[3].counter("c").add(100);
  regs[3].counter("z.last").add(1000);
  regs[0].latency("lat.a").recordTicks(5);
  regs[1].latency("lat.b").recordTicks(70);
  regs[3].latency("lat.a").recordTicks(9000);
  regs[3].latency("lat.z");  // only in the last part, never recorded

  const auto merge = [&regs](std::vector<std::size_t> which) {
    std::vector<Snapshot> parts;
    for (const std::size_t i : which) parts.push_back(regs[i].snapshot());
    return mergeSnapshots(std::move(parts));
  };
  using Names = std::vector<std::string>;

  const Snapshot two = merge({0, 1});
  EXPECT_EQ(counterNames(two), (Names{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(two.counterValue("c"), 11u);

  const Snapshot withEmpty = merge({2, 0, 1});
  EXPECT_EQ(counterNames(withEmpty), (Names{"a", "b", "c", "d", "e"}));
  EXPECT_EQ(withEmpty.counterValue("c"), 11u);

  const Snapshot disjoint = merge({1, 3});
  EXPECT_EQ(counterNames(disjoint), (Names{"b", "c", "d", "z.last"}));

  const Snapshot all = merge({0, 1, 2, 3});
  EXPECT_EQ(counterNames(all), (Names{"a", "b", "c", "d", "e", "z.last"}));
  EXPECT_EQ(all.counterValue("a"), 1u);
  EXPECT_EQ(all.counterValue("c"), 111u);
  EXPECT_EQ(all.counterValue("z.last"), 1000u);
  ASSERT_EQ(all.latencies.size(), 3u);
  EXPECT_EQ(all.latencies[0].name, "lat.a");
  EXPECT_EQ(all.latencies[1].name, "lat.b");
  EXPECT_EQ(all.latencies[2].name, "lat.z");
  const LatencySample& a = all.latencies[0];
  EXPECT_EQ(a.count, 2u);
  EXPECT_EQ(a.first, LatencyRecorder::bucketFor(5));
  EXPECT_EQ(a.first + a.buckets.size(), LatencyRecorder::bucketFor(9000) + 1);
  EXPECT_EQ(a.buckets.front(), 1u);
  EXPECT_EQ(a.buckets.back(), 1u);
  EXPECT_EQ(all.latencies[2].count, 0u);
  EXPECT_TRUE(all.latencies[2].buckets.empty());

  EXPECT_TRUE(mergeSnapshots({}).empty());
  EXPECT_TRUE(merge({2, 2, 2}).empty());
}

// Parts must be name-sorted with unique names, as Registry::snapshot
// emits them; anything else is rejected rather than merged out of order.
TEST(Metrics, MergeRejectsUnsortedParts) {
  Registry reg;
  reg.counter("a").add(1);
  reg.latency("x").recordTicks(3);
  reg.latency("y").recordTicks(4);

  Snapshot unsortedCounters;
  unsortedCounters.counters = {{"b", 1, MergeKind::Sum},
                               {"a", 2, MergeKind::Sum}};
  EXPECT_THROW(mergeSnapshots({reg.snapshot(), std::move(unsortedCounters)}),
               ConfigError);

  Snapshot duplicate;
  duplicate.counters = {{"a", 1, MergeKind::Sum}, {"a", 2, MergeKind::Sum}};
  EXPECT_THROW(mergeSnapshots({std::move(duplicate)}), ConfigError);

  Snapshot unsortedLatencies = reg.snapshot();
  std::swap(unsortedLatencies.latencies[0], unsortedLatencies.latencies[1]);
  EXPECT_THROW(mergeSnapshots({std::move(unsortedLatencies), reg.snapshot()}),
               ConfigError);

  Snapshot unsortedHistograms;
  unsortedHistograms.histograms.resize(2);
  unsortedHistograms.histograms[0].name = "h2";
  unsortedHistograms.histograms[1].name = "h1";
  EXPECT_THROW(mergeSnapshots({reg.snapshot(), std::move(unsortedHistograms)}),
               ConfigError);
}

// Map-based reference merge: the obvious name -> accumulator fold, with
// latency buckets kept dense over the whole layout.
struct ReferenceMerge {
  std::map<std::string, CounterSample> counters;
  std::map<std::string, HistogramSample> histograms;
  std::map<std::string, LatencySample> latencies;

  void add(const Snapshot& part) {
    for (const CounterSample& c : part.counters) {
      auto [it, fresh] = counters.try_emplace(c.name, c);
      if (fresh) continue;
      it->second.value = c.merge == MergeKind::Max
                             ? std::max(it->second.value, c.value)
                             : it->second.value + c.value;
    }
    for (const HistogramSample& h : part.histograms) {
      auto [it, fresh] = histograms.try_emplace(h.name, h);
      if (fresh) continue;
      for (std::size_t i = 0; i < h.counts.size(); ++i)
        it->second.counts[i] += h.counts[i];
      it->second.underflow += h.underflow;
      it->second.overflow += h.overflow;
      it->second.total += h.total;
    }
    for (const LatencySample& l : part.latencies) {
      LatencySample& acc = latencies[l.name];
      if (acc.buckets.empty()) {
        acc.name = l.name;
        acc.buckets.assign(LatencyRecorder::bucketCount(), 0);
      }
      const std::vector<std::uint64_t> dense = denseBuckets(l);
      for (std::size_t b = 0; b < dense.size(); ++b) acc.buckets[b] += dense[b];
      if (l.count) {
        acc.minTicks =
            acc.count ? std::min(acc.minTicks, l.minTicks) : l.minTicks;
        acc.maxTicks = std::max(acc.maxTicks, l.maxTicks);
      }
      acc.count += l.count;
      acc.sumTicks += l.sumTicks;
    }
  }
};

TEST(Metrics, LinearMergeMatchesMapReferenceOnRandomRegistries) {
  std::mt19937_64 rng(0x3e76e);
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t partCount = 2 + pick(3);
    std::vector<Registry> regs(partCount);
    for (Registry& reg : regs) {
      // Each part registers a random subset of a shared name pool, in a
      // random order; a name's histogram layout and counter kind are
      // fixed by the name, as they are across a machine's shards.
      for (int i = 0, n = static_cast<int>(pick(16)); i < n; ++i) {
        const std::size_t k = pick(12);
        const std::string name = "n" + std::to_string(k);
        if (k % 3 == 0)
          reg.counter("c." + name, MergeKind::Max).raiseTo(rng() % 1000);
        else
          reg.counter("c." + name).add(rng() % 1000);
        const double hi = 10.0 * static_cast<double>(k + 1);
        reg.histogram("h." + name, 0.0, hi, 4 + k)
            .add(static_cast<double>(rng() % 200) - 20.0);
        fillRandom(reg.latency("l." + name), rng);
      }
    }
    ReferenceMerge ref;
    std::vector<Snapshot> parts;
    for (const Registry& reg : regs) {
      parts.push_back(reg.snapshot());
      ref.add(parts.back());
    }
    const Snapshot m = mergeSnapshots(std::move(parts));
    SCOPED_TRACE(testing::Message() << "trial " << trial);

    ASSERT_EQ(m.counters.size(), ref.counters.size());
    auto c = ref.counters.begin();
    for (const CounterSample& got : m.counters) {
      const CounterSample& want = (c++)->second;
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.value, want.value) << got.name;
      EXPECT_EQ(got.merge, want.merge) << got.name;
    }
    ASSERT_EQ(m.histograms.size(), ref.histograms.size());
    auto h = ref.histograms.begin();
    for (const HistogramSample& got : m.histograms) {
      const HistogramSample& want = (h++)->second;
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(got.counts, want.counts) << got.name;
      EXPECT_EQ(got.underflow, want.underflow) << got.name;
      EXPECT_EQ(got.overflow, want.overflow) << got.name;
      EXPECT_EQ(got.total, want.total) << got.name;
    }
    ASSERT_EQ(m.latencies.size(), ref.latencies.size());
    auto l = ref.latencies.begin();
    for (const LatencySample& got : m.latencies) {
      const LatencySample& want = (l++)->second;
      EXPECT_EQ(got.name, want.name);
      EXPECT_EQ(denseBuckets(got), want.buckets) << got.name;
      EXPECT_EQ(got.count, want.count) << got.name;
      EXPECT_EQ(got.sumTicks, want.sumTicks) << got.name;
      EXPECT_EQ(got.minTicks, want.minTicks) << got.name;
      EXPECT_EQ(got.maxTicks, want.maxTicks) << got.name;
      // The merged sample stores exactly its own range.
      const auto [first, end] =
          LatencyRecorder::bucketRange(got.count, got.minTicks, got.maxTicks);
      EXPECT_EQ(got.first, first) << got.name;
      EXPECT_EQ(got.buckets.size(), end - first) << got.name;
    }
  }
}

TEST(Metrics, WriteJsonFormat) {
  Registry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.histogram("h", 0.0, 4.0, 2).add(1.0);
  reg.latency("lat").recordTicks(5);
  std::ostringstream os;
  writeJson(os, reg.snapshot());
  const std::string s = os.str();
  EXPECT_NE(s.find("\"latencies\""), std::string::npos);
  EXPECT_NE(s.find("\"buckets\": [[5, 1]]"), std::string::npos);
  EXPECT_NE(s.find("\"p999_us\": 0.005000"), std::string::npos);
  EXPECT_NE(s.find("\"counters\""), std::string::npos);
  EXPECT_NE(s.find("\"a.count\": 1"), std::string::npos);
  EXPECT_NE(s.find("\"b.count\": 2"), std::string::npos);
  EXPECT_LT(s.find("a.count"), s.find("b.count"));  // sorted
  EXPECT_NE(s.find("\"histograms\""), std::string::npos);
  EXPECT_NE(s.find("\"counts\": [1, 0]"), std::string::npos);
  EXPECT_NE(s.find("\"total\": 1"), std::string::npos);
}

TEST(Metrics, WriteJsonEscapesNames) {
  Registry reg;
  reg.counter("weird\"name\\x").add(1);
  std::ostringstream os;
  writeJson(os, reg.snapshot());
  EXPECT_NE(os.str().find("\"weird\\\"name\\\\x\": 1"), std::string::npos);
}

TEST(Metrics, EmptyRegistryJson) {
  Registry reg;
  std::ostringstream os;
  writeJson(os, reg.snapshot());
  EXPECT_NE(os.str().find("\"counters\": {}"), std::string::npos);
  EXPECT_NE(os.str().find("\"histograms\": {}"), std::string::npos);
  EXPECT_NE(os.str().find("\"latencies\": {}"), std::string::npos);
}

}  // namespace
}  // namespace comb::metrics
