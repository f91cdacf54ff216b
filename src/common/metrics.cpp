#include "common/metrics.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <mutex>
#include <new>

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

/// Add `l` into `acc` (same global layout), reading only l's sample range.
void accumulate(LatencySample& acc, const LatencySample& l) {
  COMB_REQUIRE(acc.buckets.size() == l.buckets.size(),
               "merging latency samples with mismatched layouts");
  const auto [first, end] =
      LatencyRecorder::bucketRange(l.count, l.minTicks, l.maxTicks);
  for (std::size_t b = first; b < end; ++b) acc.buckets[b] += l.buckets[b];
  if (l.count) {
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
  if (const auto it = histograms_.find(name); it != histograms_.end())
    return *it->second;
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
    s.buckets.resize(LatencyRecorder::bucketCount());
    const auto [first, end] =
        LatencyRecorder::bucketRange(s.count, s.minTicks, s.maxTicks);
    const auto used = r->buckets().subspan(first, end - first);
    std::copy(used.begin(), used.end(), s.buckets.begin() + first);
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
    if (out.buckets.empty()) out.buckets.resize(l.buckets.size());
    accumulate(out, l);
  }
  return out;
}

Snapshot mergeSnapshots(std::vector<Snapshot> parts) {
  if (parts.size() == 1) return std::move(parts.front());
  Snapshot out;
  // Inputs are name-sorted; a k-way merge would be fancier, but snapshot
  // merging runs once per simulation, not per event. Maps keep the
  // result sorted and the lookups simple. try_emplace moves an instrument
  // in only when its name is new, and otherwise leaves it intact to be
  // folded in (emplace may move from it before finding the name taken).
  std::map<std::string, CounterSample, std::less<>> counters;
  std::map<std::string, HistogramSample, std::less<>> histograms;
  std::map<std::string, LatencySample, std::less<>> latencies;
  for (Snapshot& part : parts) {
    for (CounterSample& c : part.counters) {
      auto [it, fresh] = counters.try_emplace(c.name, std::move(c));
      if (fresh) continue;
      COMB_REQUIRE(it->second.merge == c.merge,
                   "merging counters with mismatched merge kinds");
      if (c.merge == MergeKind::Max)
        it->second.value = std::max(it->second.value, c.value);
      else
        it->second.value += c.value;
    }
    for (HistogramSample& h : part.histograms) {
      auto [it, fresh] = histograms.try_emplace(h.name, std::move(h));
      if (fresh) continue;
      HistogramSample& acc = it->second;
      acc.underflow += h.underflow;
      acc.overflow += h.overflow;
      acc.total += h.total;
      if (acc.lo == h.lo && acc.hi == h.hi &&
          acc.counts.size() == h.counts.size()) {
        for (std::size_t i = 0; i < h.counts.size(); ++i)
          acc.counts[i] += h.counts[i];
        continue;
      }
      // Mismatched layouts: rebucket into the first-seen layout by bin
      // midpoint, mirroring Histogram::merge. Count-preserving and
      // deterministic; resolution is bounded by the coarser layout.
      const double srcWidth =
          (h.hi - h.lo) / static_cast<double>(h.counts.size());
      for (std::size_t i = 0; i < h.counts.size(); ++i) {
        const std::size_t c = h.counts[i];
        if (c == 0) continue;
        const double mid = h.lo + srcWidth * (static_cast<double>(i) + 0.5);
        if (mid < acc.lo) {
          acc.underflow += c;
        } else if (mid >= acc.hi) {
          acc.overflow += c;
        } else {
          const double t = (mid - acc.lo) / (acc.hi - acc.lo);
          auto bin = static_cast<std::size_t>(
              t * static_cast<double>(acc.counts.size()));
          bin = std::min(bin, acc.counts.size() - 1);
          acc.counts[bin] += c;
        }
      }
    }
    for (LatencySample& l : part.latencies) {
      auto [it, fresh] = latencies.try_emplace(l.name, std::move(l));
      if (!fresh) accumulate(it->second, l);
    }
  }
  out.counters.reserve(counters.size());
  for (auto& [name, c] : counters) out.counters.push_back(std::move(c));
  out.histograms.reserve(histograms.size());
  for (auto& [name, h] : histograms) out.histograms.push_back(std::move(h));
  out.latencies.reserve(latencies.size());
  for (auto& [name, l] : latencies) out.latencies.push_back(std::move(l));
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
    for (std::size_t b = 0; b < l.buckets.size(); ++b) {
      if (l.buckets[b] == 0) continue;
      if (!first) out << ", ";
      first = false;
      out << '[' << b << ", " << l.buckets[b] << ']';
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
