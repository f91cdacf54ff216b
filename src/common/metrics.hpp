// Metrics registry: named monotonic counters and histograms for the
// simulated substrate.
//
// Components (links, NICs, MiniMPI, runners) register instruments once at
// construction — `registry.counter("nic.gm.n0.retransmits")` — and hold
// the returned reference; incrementing is then a single add with no name
// lookup and no allocation, preserving the simulator's allocation-free
// hot path. The registry is owned by the ShardContext (one per shard; a
// sim::Executor merges the shard snapshots by name, and parallel sweep
// points never share state) and snapshotted into report::MachineStats
// after a run, where it is rendered as a table or exported as JSON
// alongside the fault counters.
//
// Names are dot-separated paths ("layer.component.instance.metric"); the
// snapshot sorts them, so related instruments group naturally.
//
// Latency recorders cost what they record. Their bucket arrays come from
// already-zero page blocks (fresh anonymous pages, or blocks a destroyed
// registry zeroed and left behind), so registering one writes nothing and
// only the pages its samples reach become resident; snapshots store, and
// merges and tail reductions touch, only each sample's [min, max] bucket
// range.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.hpp"
#include "common/latency_recorder.hpp"

namespace comb::metrics {

/// How same-named counters from different registries combine when
/// per-shard snapshots are merged (see mergeSnapshots). Almost every
/// counter is a Sum (events happened here + events happened there); Max
/// is for high-water marks like queue peaks, where each shard tracks its
/// own running maximum and the combined figure is the largest of them.
enum class MergeKind : std::uint8_t { Sum, Max };

/// Monotonic counter. Cheap enough for per-packet paths.
class Counter {
 public:
  void add(std::uint64_t d = 1) { value_ += d; }
  /// Monotonic set-to-max, for high-water-mark counters (pairs with
  /// MergeKind::Max): the value only ever grows, like add, but tracks a
  /// peak instead of a total.
  void raiseTo(std::uint64_t v) {
    if (v > value_) value_ = v;
  }
  std::uint64_t value() const { return value_; }
  MergeKind mergeKind() const { return merge_; }

 private:
  friend class Registry;
  std::uint64_t value_ = 0;
  MergeKind merge_ = MergeKind::Sum;
};

/// One instrument's state at snapshot time.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
  MergeKind merge = MergeKind::Sum;
};

struct HistogramSample {
  std::string name;
  double lo = 0;
  double hi = 0;
  std::vector<std::size_t> counts;  ///< per-bin counts
  std::size_t underflow = 0;
  std::size_t overflow = 0;
  std::size_t total = 0;
};

/// A latency recorder's state at snapshot time. Buckets follow the global
/// LatencyRecorder layout, so same-named samples merge by count addition
/// — order- and shard-count-independent. `buckets` holds a range of that
/// layout: `buckets[i]` counts global bucket `first + i`. Every sample
/// lies in LatencyRecorder::bucketRange(count, minTicks, maxTicks), and
/// Registry::snapshot and mergeSnapshots store exactly that range (no
/// buckets and `first == 0` when count == 0), so a sample costs what its
/// recorder touched. mergeLatencyFamily returns the full dense layout
/// instead (`first == 0`, bucketCount() buckets).
struct LatencySample {
  std::string name;
  std::size_t first = 0;
  std::vector<std::uint64_t> buckets;
  std::uint64_t count = 0;
  std::uint64_t sumTicks = 0;
  std::uint64_t minTicks = 0;
  std::uint64_t maxTicks = 0;

  TailSummary tail() const {
    return latencyTail(buckets, first, count, sumTicks, minTicks, maxTicks);
  }
};

/// A point-in-time copy of every registered instrument, sorted by name.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<HistogramSample> histograms;
  std::vector<LatencySample> latencies;

  bool empty() const {
    return counters.empty() && histograms.empty() && latencies.empty();
  }
  /// Value of a counter by exact name; 0 when absent.
  std::uint64_t counterValue(std::string_view name) const;
  /// Latency sample by exact name; nullptr when absent.
  const LatencySample* latency(std::string_view name) const;
};

/// Merge every latency sample whose name starts with `prefix` and ends
/// with `suffix` (e.g. "mpi.n" + ".send_latency" collects the per-rank
/// base recorders but not their phase-scoped ".send_latency.<phase>"
/// variants). All recorders share the global layout, so the merge is
/// element-wise count addition — order-independent. The result's name is
/// `prefix*suffix` and its buckets are the full dense layout (`first ==
/// 0`); count == 0, and no buckets, when nothing matched.
LatencySample mergeLatencyFamily(const Snapshot& snap,
                                 std::string_view prefix,
                                 std::string_view suffix);

namespace detail {

/// Zeroed bucket arrays for registry-created latency recorders, carved
/// from anonymous page blocks that the OS zeroes on first touch. Handing
/// out an array writes nothing, and buckets that are never written never
/// become resident. Arrays live as long as the pool, and must be all-zero
/// again when it is destroyed: a few released blocks are kept process-wide
/// and handed to the next pool as they are.
class BucketPool {
 public:
  /// LatencyRecorder::bucketCount() zeroed counters.
  std::uint64_t* take();

 private:
  struct Release {
    void operator()(void* block) const;
  };
  std::vector<std::unique_ptr<void, Release>> blocks_;
  std::size_t usedInLast_ = 0;  ///< arrays handed out from blocks_.back()
};

}  // namespace detail

class Registry {
 public:
  Registry() = default;
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Find-or-create. References stay valid for the registry's lifetime.
  /// `merge` is fixed by the first registration (re-registering with a
  /// different kind is rejected).
  Counter& counter(std::string_view name, MergeKind merge = MergeKind::Sum);
  /// Find-or-create; bin layout is fixed by the first registration
  /// (re-registering with a different layout is rejected).
  Histogram& histogram(std::string_view name, double lo, double hi,
                       std::size_t bins);
  /// Find-or-create. All recorders share the global log-bucket layout,
  /// so there is nothing to configure; recording is allocation-free.
  /// Creating one touches none of its bucket storage.
  LatencyRecorder& latency(std::string_view name);

  std::size_t counterCount() const { return counters_.size(); }
  std::size_t histogramCount() const { return histograms_.size(); }
  std::size_t latencyCount() const { return latencies_.size(); }

  /// Each latency sample stores only its recorder's bucket range.
  Snapshot snapshot() const;

 private:
  // std::map: stable references, deterministic (sorted) iteration.
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  detail::BucketPool latencyBuckets_;  // outlives the recorders using it
  std::map<std::string, std::unique_ptr<LatencyRecorder>, std::less<>>
      latencies_;
};

/// Combine per-shard snapshots into one machine-wide view, matching
/// instruments by exact name. Counters combine by their MergeKind (Sum
/// counters add, Max counters take the largest; a name appearing in
/// several inputs must carry the same kind in all of them). Histograms
/// combine bin-wise; a name appearing in several inputs must carry the
/// same layout in all of them (ConfigError otherwise).
/// Latency samples share one global layout and always add element-wise,
/// the stored range widening to cover every part. Each part must list
/// every instrument kind sorted by unique name, as Registry::snapshot
/// produces it (checked; ConfigError otherwise), and the result is sorted
/// the same way: a linear k-way merge in which equal names fold, in part
/// order, into the first part's sample. A single input round-trips
/// unchanged, which keeps the serial path byte-identical. The parts are
/// consumed: each instrument is moved out of the first part that names
/// it, so pass them with std::move.
Snapshot mergeSnapshots(std::vector<Snapshot> parts);

/// Serialize a snapshot as a JSON object:
///   {"counters": {"name": value, ...},
///    "histograms": {"name": {"lo": ..., "hi": ..., "counts": [...],
///                            "underflow": ..., "overflow": ...}, ...},
///    "latencies": {"name": {"count": ..., "mean_us": ..., "min_us": ...,
///                           "max_us": ..., "p50_us": ..., "p90_us": ...,
///                           "p99_us": ..., "p999_us": ...,
///                           "buckets": [[bucket, count], ...]}, ...}}
/// Latency buckets are sparse [index, count] pairs over the global
/// LatencyRecorder layout: a recorder fills a handful of its 1,920
/// buckets, so a dense array would be almost all zeros.
void writeJson(std::ostream& out, const Snapshot& snap, int indent = 0);

}  // namespace comb::metrics
