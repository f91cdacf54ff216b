#include "common/metrics.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <mutex>
#include <new>
#include <span>

#include "common/error.hpp"

namespace comb::metrics {

namespace detail {

namespace {

constexpr std::size_t kArraysPerBlock = 64;
// 64 arrays of 1,920 counters: 240 whole 4 KiB pages.
constexpr std::size_t kBlockBytes =
    kArraysPerBlock * LatencyRecorder::bucketCount() * sizeof(std::uint64_t);

// A few all-zero blocks released by destroyed pools, kept for the next
// pools: a short-lived registry (one 2-node point) then neither maps nor
// faults in fresh pages, also when a few sweep workers run points side by
// side. A kept block stays resident wherever it was touched, so this
// holds at most kSpareBlocks * kBlockBytes (3.75 MiB).
constexpr std::size_t kSpareBlocks = 4;
struct SpareBlocks {
  std::mutex mu;
  std::array<void*, kSpareBlocks> blocks{};
  std::size_t count = 0;  // guarded by mu
};

SpareBlocks& spares() {
  static auto* s = new SpareBlocks;  // never destroyed: outlives registries
  return *s;
}

void* takeZeroedBlock() {
  {
    SpareBlocks& s = spares();
    const std::lock_guard lock(s.mu);
    if (s.count > 0) return s.blocks[--s.count];
  }
  void* p = mmap(nullptr, kBlockBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

}  // namespace

void BucketPool::Release::operator()(void* block) const {
  {
    SpareBlocks& s = spares();
    const std::lock_guard lock(s.mu);
    if (s.count < kSpareBlocks) {
      s.blocks[s.count++] = block;
      return;
    }
  }
  munmap(block, kBlockBytes);
}

std::uint64_t* BucketPool::take() {
  if (blocks_.empty() || usedInLast_ == kArraysPerBlock) {
    std::unique_ptr<void, Release> block(takeZeroedBlock());
    blocks_.push_back(std::move(block));
    usedInLast_ = 0;
  }
  return static_cast<std::uint64_t*>(blocks_.back().get()) +
         usedInLast_++ * LatencyRecorder::bucketCount();
}

}  // namespace detail

namespace {

/// Widen `s`'s stored bucket range to cover global buckets [first, end).
void cover(LatencySample& s, std::size_t first, std::size_t end) {
  if (s.buckets.empty()) {
    s.first = first;
    s.buckets.assign(end - first, 0);
    return;
  }
  const std::size_t oldEnd = s.first + s.buckets.size();
  const std::size_t lo = std::min(s.first, first);
  const std::size_t hi = std::max(oldEnd, end);
  if (lo == s.first && hi == oldEnd) return;
  std::vector<std::uint64_t> wide(hi - lo, 0);
  std::copy(s.buckets.begin(), s.buckets.end(), wide.begin() + (s.first - lo));
  s.buckets = std::move(wide);
  s.first = lo;
}

/// Add `l` into `acc` (same global layout), reading only l's sample range
/// and widening acc's stored range to cover it.
void accumulate(LatencySample& acc, const LatencySample& l) {
  const auto [first, end] =
      LatencyRecorder::bucketRange(l.count, l.minTicks, l.maxTicks);
  if (first < end) {
    COMB_REQUIRE(l.first <= first && end - l.first <= l.buckets.size(),
                 "latency sample's buckets do not cover its range");
    cover(acc, first, end);
    const std::uint64_t* src = l.buckets.data() + (first - l.first);
    std::uint64_t* dst = acc.buckets.data() + (first - acc.first);
    for (std::size_t i = 0; i < end - first; ++i) dst[i] += src[i];
    acc.minTicks = acc.count ? std::min(acc.minTicks, l.minTicks) : l.minTicks;
    acc.maxTicks = std::max(acc.maxTicks, l.maxTicks);
  }
  acc.count += l.count;
  acc.sumTicks += l.sumTicks;
}

}  // namespace

Registry::~Registry() {
  // The bucket pool recycles its blocks, which must be all-zero again.
  for (auto& [name, r] : latencies_) r->clear();
}

Counter& Registry::counter(std::string_view name, MergeKind merge) {
  COMB_REQUIRE(!name.empty(), "metric name must not be empty");
  if (const auto it = counters_.find(name); it != counters_.end()) {
    COMB_REQUIRE(it->second.merge_ == merge,
                 "counter re-registered with a different merge kind");
    return it->second;
  }
  Counter c;
  c.merge_ = merge;
  return counters_.emplace(std::string(name), c).first->second;
}

Histogram& Registry::histogram(std::string_view name, double lo, double hi,
                               std::size_t bins) {
  COMB_REQUIRE(!name.empty(), "metric name must not be empty");
  if (const auto it = histograms_.find(name); it != histograms_.end()) {
    const Histogram& h = *it->second;
    COMB_REQUIRE(h.lo() == lo && h.hi() == hi && h.bins() == bins,
                 "histogram re-registered with a different layout");
    return *it->second;
  }
  auto h = std::make_unique<Histogram>(lo, hi, bins);
  return *histograms_.emplace(std::string(name), std::move(h)).first->second;
}

LatencyRecorder& Registry::latency(std::string_view name) {
  COMB_REQUIRE(!name.empty(), "metric name must not be empty");
  if (const auto it = latencies_.find(name); it != latencies_.end())
    return *it->second;
  std::unique_ptr<LatencyRecorder> r(
      new LatencyRecorder(latencyBuckets_.take()));
  return *latencies_.emplace(std::string(name), std::move(r)).first->second;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    snap.counters.push_back({name, c.value(), c.mergeKind()});
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.lo = h->binLow(0);
    s.hi = h->binHigh(h->bins() - 1);
    s.counts.resize(h->bins());
    for (std::size_t i = 0; i < h->bins(); ++i) s.counts[i] = h->count(i);
    s.underflow = h->underflow();
    s.overflow = h->overflow();
    s.total = h->total();
    snap.histograms.push_back(std::move(s));
  }
  snap.latencies.reserve(latencies_.size());
  for (const auto& [name, r] : latencies_) {
    LatencySample s;
    s.name = name;
    s.count = r->count();
    s.sumTicks = r->sumTicks();
    s.minTicks = r->minTicks();
    s.maxTicks = r->maxTicks();
    const auto [first, end] =
        LatencyRecorder::bucketRange(s.count, s.minTicks, s.maxTicks);
    const auto used = r->buckets().subspan(first, end - first);
    s.first = first;
    s.buckets.assign(used.begin(), used.end());
    snap.latencies.push_back(std::move(s));
  }
  return snap;
}

std::uint64_t Snapshot::counterValue(std::string_view name) const {
  const auto it = std::find_if(
      counters.begin(), counters.end(),
      [name](const CounterSample& c) { return c.name == name; });
  return it == counters.end() ? 0 : it->value;
}

const LatencySample* Snapshot::latency(std::string_view name) const {
  const auto it = std::find_if(
      latencies.begin(), latencies.end(),
      [name](const LatencySample& l) { return l.name == name; });
  return it == latencies.end() ? nullptr : &*it;
}

LatencySample mergeLatencyFamily(const Snapshot& snap,
                                 std::string_view prefix,
                                 std::string_view suffix) {
  LatencySample out;
  out.name.reserve(prefix.size() + 1 + suffix.size());
  out.name.append(prefix).append("*").append(suffix);
  for (const LatencySample& l : snap.latencies) {
    const std::string_view name = l.name;
    if (name.size() < prefix.size() + suffix.size()) continue;
    if (name.substr(0, prefix.size()) != prefix) continue;
    if (name.substr(name.size() - suffix.size()) != suffix) continue;
    if (out.buckets.empty()) out.buckets.resize(LatencyRecorder::bucketCount());
    accumulate(out, l);
  }
  return out;
}

namespace {

void foldCounter(CounterSample& acc, const CounterSample& c) {
  COMB_REQUIRE(acc.merge == c.merge,
               "merging counters with mismatched merge kinds");
  if (c.merge == MergeKind::Max)
    acc.value = std::max(acc.value, c.value);
  else
    acc.value += c.value;
}

void foldHistogram(HistogramSample& acc, const HistogramSample& h) {
  // Same-named histograms share one layout (Registry::histogram pins it
  // per name, and every shard registers a name with the same layout), so
  // the merge is bin-wise and exact.
  COMB_REQUIRE(acc.lo == h.lo && acc.hi == h.hi &&
                   acc.counts.size() == h.counts.size(),
               "merging histogram '" + h.name + "' with mismatched layouts");
  acc.underflow += h.underflow;
  acc.overflow += h.overflow;
  acc.total += h.total;
  for (std::size_t i = 0; i < h.counts.size(); ++i)
    acc.counts[i] += h.counts[i];
}

template <typename Sample>
void requireSorted(const std::vector<Sample>& samples, const char* kind) {
  for (std::size_t i = 1; i < samples.size(); ++i)
    COMB_REQUIRE(samples[i - 1].name < samples[i].name,
                 std::string("mergeSnapshots: a part's ") + kind +
                     " are not sorted by unique name (at '" +
                     samples[i].name + "')");
}

/// K-way merge of every part's name-sorted `field`: each step takes the
/// lowest head name (the earliest part on ties), moves that sample in and
/// folds the later parts' equal-named heads into it.
template <typename Sample, typename Fold>
std::vector<Sample> mergeByName(std::vector<Snapshot>& parts,
                                std::vector<Sample> Snapshot::*field,
                                Fold fold) {
  std::vector<std::span<Sample>> rest;
  rest.reserve(parts.size());
  std::size_t total = 0;
  for (Snapshot& part : parts) {
    rest.emplace_back(part.*field);
    total += (part.*field).size();
  }
  std::vector<Sample> out;
  out.reserve(total);
  for (;;) {
    std::span<Sample>* lead = nullptr;
    for (std::span<Sample>& r : rest)
      if (!r.empty() && (!lead || r.front().name < lead->front().name))
        lead = &r;
    if (!lead) return out;
    Sample& acc = out.emplace_back(std::move(lead->front()));
    *lead = lead->subspan(1);
    for (std::span<Sample>* r = lead + 1; r != rest.data() + rest.size(); ++r)
      if (!r->empty() && r->front().name == acc.name) {
        fold(acc, r->front());
        *r = r->subspan(1);
      }
  }
}

}  // namespace

Snapshot mergeSnapshots(std::vector<Snapshot> parts) {
  for (const Snapshot& part : parts) {
    requireSorted(part.counters, "counters");
    requireSorted(part.histograms, "histograms");
    requireSorted(part.latencies, "latencies");
  }
  if (parts.size() == 1) return std::move(parts.front());
  Snapshot out;
  out.counters = mergeByName(parts, &Snapshot::counters, foldCounter);
  out.histograms = mergeByName(parts, &Snapshot::histograms, foldHistogram);
  out.latencies = mergeByName(parts, &Snapshot::latencies, accumulate);
  return out;
}

namespace {

// Minimal JSON string escape — metric names are ASCII identifiers, but do
// not let a stray quote or backslash produce invalid output.
void writeJsonString(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

void pad(std::ostream& out, int n) {
  for (int i = 0; i < n; ++i) out << ' ';
}

}  // namespace

void writeJson(std::ostream& out, const Snapshot& snap, int indent) {
  const int in1 = indent + 2;
  const int in2 = indent + 4;
  out << "{\n";
  pad(out, in1);
  out << "\"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    pad(out, in2);
    writeJsonString(out, snap.counters[i].name);
    out << ": " << snap.counters[i].value;
  }
  if (!snap.counters.empty()) {
    out << '\n';
    pad(out, in1);
  }
  out << "},\n";
  pad(out, in1);
  out << "\"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramSample& h = snap.histograms[i];
    out << (i == 0 ? "\n" : ",\n");
    pad(out, in2);
    writeJsonString(out, h.name);
    out << ": {\"lo\": " << h.lo << ", \"hi\": " << h.hi << ", \"counts\": [";
    for (std::size_t j = 0; j < h.counts.size(); ++j) {
      if (j > 0) out << ", ";
      out << h.counts[j];
    }
    out << "], \"underflow\": " << h.underflow
        << ", \"overflow\": " << h.overflow << ", \"total\": " << h.total
        << "}";
  }
  if (!snap.histograms.empty()) {
    out << '\n';
    pad(out, in1);
  }
  out << "},\n";
  pad(out, in1);
  out << "\"latencies\": {";
  for (std::size_t i = 0; i < snap.latencies.size(); ++i) {
    const LatencySample& l = snap.latencies[i];
    const TailSummary t = l.tail();
    out << (i == 0 ? "\n" : ",\n");
    pad(out, in2);
    writeJsonString(out, l.name);
    out << ": {\"count\": " << t.count;
    const auto us = [&out](const char* key, double seconds) {
      char buf[64];
      std::snprintf(buf, sizeof buf, ", \"%s\": %.6f", key, seconds * 1e6);
      out << buf;
    };
    us("mean_us", t.mean);
    us("min_us", t.min);
    us("max_us", t.max);
    us("p50_us", t.p50);
    us("p90_us", t.p90);
    us("p99_us", t.p99);
    us("p999_us", t.p999);
    out << ", \"buckets\": [";
    bool first = true;
    for (std::size_t k = 0; k < l.buckets.size(); ++k) {
      if (l.buckets[k] == 0) continue;
      if (!first) out << ", ";
      first = false;
      out << '[' << l.first + k << ", " << l.buckets[k] << ']';
    }
    out << "]}";
  }
  if (!snap.latencies.empty()) {
    out << '\n';
    pad(out, in1);
  }
  out << "}\n";
  pad(out, indent);
  out << "}";
}

}  // namespace comb::metrics
