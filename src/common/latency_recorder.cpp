#include "common/latency_recorder.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace comb {

namespace {

constexpr std::uint64_t kHalfSub = LatencyRecorder::kSub / 2;

/// Quantile over bucket counts (`buckets[i]` counts global bucket
/// `first + i`) whose `count` samples all lie in [minTicks, maxTicks]: the
/// ceil(q * count)-th sample's bucket midpoint, found by scanning only the
/// buckets that range can occupy.
double quantileTicks(std::span<const std::uint64_t> buckets,
                     std::size_t first, std::uint64_t count,
                     std::uint64_t minTicks, std::uint64_t maxTicks,
                     double q) {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the sample we want, 1-based: ceil(q * count), at least 1.
  const double exact = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(std::ceil(exact));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cum = 0;
  const auto range = LatencyRecorder::bucketRange(count, minTicks, maxTicks);
  COMB_ASSERT(first <= range.first && range.end - first <= buckets.size(),
              "latency quantile: buckets do not cover the sample range");
  for (std::size_t b = range.first; b < range.end; ++b) {
    cum += buckets[b - first];
    if (cum >= rank) {
      const std::uint64_t lo = LatencyRecorder::bucketLowTicks(b);
      const std::uint64_t hi = LatencyRecorder::bucketHighTicks(b);
      return LatencyRecorder::ticksToSeconds(lo + (hi - lo) / 2);
    }
  }
  COMB_ASSERT(false, "latency quantile: bucket counts disagree with count");
  return 0;
}

}  // namespace

std::size_t LatencyRecorder::bucketFor(std::uint64_t ticks) {
  if (ticks < kSub) return static_cast<std::size_t>(ticks);
  const unsigned o = static_cast<unsigned>(std::bit_width(ticks)) - kSubBits;
  const std::uint64_t sub = ticks >> o;  // in [kSub/2, kSub)
  return static_cast<std::size_t>(kSub + (o - 1) * kHalfSub +
                                  (sub - kHalfSub));
}

std::uint64_t LatencyRecorder::bucketLowTicks(std::size_t bucket) {
  if (bucket < kSub) return bucket;
  const std::size_t r = bucket - kSub;
  const unsigned o = static_cast<unsigned>(r / kHalfSub) + 1;
  const std::uint64_t sub = r % kHalfSub + kHalfSub;
  return sub << o;
}

std::uint64_t LatencyRecorder::bucketHighTicks(std::size_t bucket) {
  if (bucket < kSub) return bucket + 1;
  const std::size_t r = bucket - kSub;
  const unsigned o = static_cast<unsigned>(r / kHalfSub) + 1;
  const std::uint64_t sub = r % kHalfSub + kHalfSub;
  if (sub + 1 == kSub && o + kSubBits >= 64)  // top bucket: saturate
    return std::numeric_limits<std::uint64_t>::max();
  return (sub + 1) << o;
}

LatencyRecorder::LatencyRecorder()
    : owned_(bucketCount(), 0), buckets_(owned_.data()) {}

void LatencyRecorder::recordTicks(std::uint64_t ticks) {
  ++buckets_[bucketFor(ticks)];
  if (count_ == 0 || ticks < minTicks_) minTicks_ = ticks;
  if (ticks > maxTicks_) maxTicks_ = ticks;
  ++count_;
  sumTicks_ += ticks;
}

void LatencyRecorder::clear() {
  const auto [first, end] = bucketRange(count_, minTicks_, maxTicks_);
  std::fill(buckets_ + first, buckets_ + end, 0u);
  count_ = sumTicks_ = minTicks_ = maxTicks_ = 0;
}

std::uint64_t LatencyRecorder::toTicks(double seconds) {
  if (!(seconds > 0)) return 0;
  const double t = seconds * static_cast<double>(kTicksPerSecond);
  // llround saturates UB-free well below 2^63; anything that large is
  // out of the simulator's dynamic range anyway.
  if (t >= 9e18) return 9000000000000000000ull;
  return static_cast<std::uint64_t>(std::llround(t));
}

TailSummary latencyTail(std::span<const std::uint64_t> buckets,
                        std::size_t first, std::uint64_t count,
                        std::uint64_t sumTicks, std::uint64_t minTicks,
                        std::uint64_t maxTicks) {
  TailSummary t;
  t.count = count;
  if (count == 0) return t;
  t.mean = LatencyRecorder::ticksToSeconds(sumTicks) /
           static_cast<double>(count);
  t.min = LatencyRecorder::ticksToSeconds(minTicks);
  t.max = LatencyRecorder::ticksToSeconds(maxTicks);
  t.p50 = quantileTicks(buckets, first, count, minTicks, maxTicks, 0.50);
  t.p90 = quantileTicks(buckets, first, count, minTicks, maxTicks, 0.90);
  t.p99 = quantileTicks(buckets, first, count, minTicks, maxTicks, 0.99);
  t.p999 = quantileTicks(buckets, first, count, minTicks, maxTicks, 0.999);
  return t;
}

double LatencyRecorder::quantile(double q) const {
  return quantileTicks(buckets(), 0, count_, minTicks(), maxTicks_, q);
}

double LatencyRecorder::meanSeconds() const {
  return count_ == 0
             ? 0
             : ticksToSeconds(sumTicks_) / static_cast<double>(count_);
}

TailSummary LatencyRecorder::tail() const {
  return latencyTail(buckets(), 0, count_, sumTicks_, minTicks(), maxTicks_);
}

}  // namespace comb
