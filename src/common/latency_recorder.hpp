// HDR-style log-bucketed latency recorder for the simulator hot path.
//
// A recorder is a fixed array of integer counters over a *global* bucket
// layout (log-linear over nanosecond ticks: 64 exact one-tick buckets,
// then 32 sub-buckets per octave, ~3% relative resolution up to 2^63 ns).
// Because every recorder shares the same layout, merging two recorders —
// or the per-shard snapshots the sharded executor produces — is pure
// element-wise count addition: commutative, associative, and therefore
// independent of shard count and merge order. That is what makes
// `--sim-jobs 1` and `--sim-jobs N` produce byte-identical latency
// distributions.
//
// record() is integer math on a preallocated array: no allocation, no
// floating-point accumulation (the sum is kept in exact ticks), safe for
// per-message use inside the allocation-free steady state enforced by
// test_executor_alloc / test_latency_recorder.
//
// Every sample lies in the bucket range [bucketFor(min), bucketFor(max)],
// so reductions (quantiles, snapshots, merges) scan only that range: a
// recorder costs what it has recorded, not the ~2k-bucket layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace comb {

namespace metrics {
class Registry;
}  // namespace metrics

/// Percentile summary of one recorder, in seconds. `count == 0` means no
/// samples were recorded and every field is zero.
struct TailSummary {
  std::uint64_t count = 0;
  double mean = 0;
  double min = 0;
  double max = 0;
  double p50 = 0;
  double p90 = 0;
  double p99 = 0;
  double p999 = 0;

  bool operator==(const TailSummary&) const = default;
};

class LatencyRecorder {
 public:
  /// One tick = 1 ns. Values below one tick land in bucket 0; the top
  /// bucket absorbs everything past ~292 years.
  static constexpr std::uint64_t kTicksPerSecond = 1000000000ull;
  /// Octaves above the linear region get kSub/2 = 32 sub-buckets each
  /// (the leading bit is implicit): ~1/32 relative bucket width.
  static constexpr unsigned kSubBits = 6;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;

  /// Total bucket count of the global layout: kSub one-tick buckets, then
  /// kSub/2 per octave for the remaining 64 - kSubBits octaves.
  static constexpr std::size_t bucketCount() {
    return static_cast<std::size_t>(kSub + (64 - kSubBits) * (kSub / 2));
  }
  /// Bucket index for a tick value (pure function of the global layout).
  static std::size_t bucketFor(std::uint64_t ticks);
  /// Inclusive lower / exclusive upper tick bound of a bucket.
  static std::uint64_t bucketLowTicks(std::size_t bucket);
  static std::uint64_t bucketHighTicks(std::size_t bucket);

  /// Half-open bucket range [first, end) holding every sample of a
  /// distribution with these aggregates; empty when `count == 0`.
  struct BucketRange {
    std::size_t first = 0;
    std::size_t end = 0;
  };
  static BucketRange bucketRange(std::uint64_t count, std::uint64_t minTicks,
                                 std::uint64_t maxTicks) {
    if (count == 0) return {};
    return {bucketFor(minTicks), bucketFor(maxTicks) + 1};
  }

  /// A standalone recorder owning its own zeroed bucket array. Recorders
  /// created by metrics::Registry use registry-owned storage instead.
  LatencyRecorder();
  LatencyRecorder(const LatencyRecorder&) = delete;
  LatencyRecorder& operator=(const LatencyRecorder&) = delete;

  /// Record one latency in seconds. Negative values clamp to zero.
  void record(double seconds) { recordTicks(toTicks(seconds)); }
  /// Record one latency in integer nanosecond ticks. Zero-allocation.
  void recordTicks(std::uint64_t ticks);

  void clear();

  std::uint64_t count() const { return count_; }
  std::uint64_t sumTicks() const { return sumTicks_; }
  std::uint64_t minTicks() const { return count_ ? minTicks_ : 0; }
  std::uint64_t maxTicks() const { return maxTicks_; }
  /// Dense view over the whole global layout.
  std::span<const std::uint64_t> buckets() const {
    return {buckets_, bucketCount()};
  }

  /// Quantile in seconds, estimated from the bucket containing the
  /// ceil(q * count)-th sample (bucket midpoint, exact for one-tick
  /// buckets). Deterministic; 0 when empty.
  double quantile(double q) const;
  double meanSeconds() const;
  TailSummary tail() const;

  /// Seconds -> ticks, round-to-nearest, clamped at zero.
  static std::uint64_t toTicks(double seconds);
  static double ticksToSeconds(std::uint64_t ticks) {
    return static_cast<double>(ticks) / static_cast<double>(kTicksPerSecond);
  }

 private:
  friend class metrics::Registry;
  /// Records into `storage`: bucketCount() zeroed counters that outlive
  /// the recorder.
  explicit LatencyRecorder(std::uint64_t* storage) : buckets_(storage) {}

  std::vector<std::uint64_t> owned_;  ///< standalone storage only
  std::uint64_t* buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sumTicks_ = 0;
  std::uint64_t minTicks_ = 0;
  std::uint64_t maxTicks_ = 0;
};

/// Summary over raw merged state (counts in the global layout + exact
/// tick aggregates), as snapshot merging produces it. `buckets[i]` counts
/// global bucket `first + i`. Only the buckets in [bucketFor(minTicks),
/// bucketFor(maxTicks)] are read, so `buckets` must cover that range and
/// it must hold all `count` samples.
TailSummary latencyTail(std::span<const std::uint64_t> buckets,
                        std::size_t first, std::uint64_t count,
                        std::uint64_t sumTicks, std::uint64_t minTicks,
                        std::uint64_t maxTicks);

}  // namespace comb
