// TraceLog: structured event capture across the simulated substrate.
//
// When attached to a ShardContext, instrumented components (CPU, links, NICs,
// transports, MiniMPI, the COMB workers) emit records into a bounded ring.
// The result is a per-run timeline that answers "what actually happened":
// every interrupt, every packet, every protocol transition, every MPI
// call, every benchmark phase — the observability layer behind
// `comb trace` and the `--trace` flag of the figure benches.
//
// Records come in four phases:
//   * Instant   — a point event (a packet injected, a fault fired);
//   * Begin/End — a matched span (an MPI call, a DMA, a work phase);
//     pairing is enforced per (category, node) track: an End without an
//     open Begin, or with a different label, throws.
//   * Complete  — a span whose duration is known at emission time (wire
//     transit, interrupt service); duration rides in `dur`.
//
// Labels are interned: emission sites pass a string_view, the log resolves
// it to a small integer id through a transparent hash lookup, and records
// store only the id. After the first emission of each distinct label the
// log performs no heap allocation — the ring is preallocated at
// construction — so steady-state tracing preserves the allocation-free
// simulator hot path (enforced by test_tracelog).
//
// Disabled (no log attached) the cost is a single pointer test per
// emission site.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace comb::sim {

enum class TraceCategory : std::uint8_t {
  Process,    ///< process spawn/finish
  Compute,    ///< user compute on a CPU (span; a = requested seconds)
  Interrupt,  ///< ISR service window (complete; a = service seconds)
  Packet,     ///< packet injected into the fabric (a = wire bytes)
  Wire,       ///< wire transit, serialize->arrival (complete; a = bytes)
  NicEvent,   ///< NIC-level event queued / DMA window (label: kind)
  Protocol,   ///< transport state transition (label: e.g. "rts", "cts")
  MpiCall,    ///< MiniMPI entry point (span; label: call name; a = bytes)
  Phase,      ///< benchmark phase (span; label: "post", "work", "wait"...)
  Fault,      ///< injected fault / reliability action (label: e.g.
              ///< "up0:drop", "retransmit"; a = bytes, b = seq/msgId)
  Engine,     ///< progress-engine session (span), apart from the app's calls
};

/// Number of TraceCategory enumerators (used for per-track bookkeeping).
inline constexpr std::size_t kTraceCategoryCount = 11;

const char* traceCategoryName(TraceCategory c);

enum class TracePhase : std::uint8_t {
  Instant,   ///< point event
  Begin,     ///< span opens
  End,       ///< span closes (must match the innermost open Begin)
  Complete,  ///< self-contained span; duration in TraceRecord::dur
};

/// Interned label id; resolve with TraceLog::labelName().
using TraceLabelId = std::uint32_t;

struct TraceRecord {
  Time t = 0;
  Time dur = 0;  ///< Complete spans only: duration in seconds
  TraceCategory cat = TraceCategory::Process;
  TracePhase phase = TracePhase::Instant;
  int node = -1;  ///< node id; -1 when not node-specific
  TraceLabelId label = 0;
  double a = 0;  ///< category-specific payload (bytes, seconds, handle...)
  double b = 0;
};

class TraceLog {
 public:
  /// Ring capacity: oldest records are dropped past this. The ring is
  /// preallocated here so steady-state emission never allocates.
  explicit TraceLog(std::size_t capacity = 1 << 16);

  // --- emission ----------------------------------------------------------
  void emit(Time t, TraceCategory cat, int node, std::string_view label,
            double a = 0, double b = 0);
  /// Open a span on the (cat, node) track.
  void beginSpan(Time t, TraceCategory cat, int node, std::string_view label,
                 double a = 0);
  /// Close the innermost span on the (cat, node) track. The label must
  /// match the open Begin; an unmatched End throws comb::Error.
  void endSpan(Time t, TraceCategory cat, int node, std::string_view label,
               double a = 0);
  /// A span whose duration is already known (wire transit, ISR window).
  void complete(Time t, Time dur, TraceCategory cat, int node,
                std::string_view label, double a = 0, double b = 0);

  /// Intern a label without emitting (e.g. to pre-register hot labels).
  TraceLabelId intern(std::string_view label);
  /// Resolve an interned label id back to its text.
  std::string_view labelName(TraceLabelId id) const;
  /// Number of distinct labels interned so far.
  std::size_t labelCount() const { return labels_.size(); }

  // --- access ------------------------------------------------------------
  std::size_t size() const { return size_; }
  /// Record `i` in emission (time) order, 0 = oldest retained.
  const TraceRecord& record(std::size_t i) const;
  std::size_t dropped() const { return dropped_; }
  std::size_t capacity() const { return ring_.size(); }
  /// Open (unclosed) spans across all tracks — 0 after a balanced run.
  std::size_t openSpans() const;
  void clear();

  /// Count records in a category (optionally for one node).
  std::size_t count(TraceCategory cat, int node = -1) const;
  /// Count span-begin records in a category (a span counted once).
  std::size_t countSpans(TraceCategory cat, int node = -1) const;

  /// Records of one category, in time order.
  std::vector<const TraceRecord*> select(TraceCategory cat,
                                         int node = -1) const;
  /// Records of one category carrying this exact label, in time order.
  std::vector<const TraceRecord*> select(TraceCategory cat,
                                         std::string_view label,
                                         int node = -1) const;

  /// Merge per-shard logs into one time-ordered log. Records sort by
  /// (time, part index, emission order) — deterministic given the
  /// inputs — and labels are re-interned. A single input is returned
  /// unchanged, so the serial path round-trips byte-identically; null
  /// parts are skipped (nullptr when all are). Dropped-record counts
  /// sum. The result is an analysis artifact: span-pairing state is not
  /// reconstructed, so do not continue Begin/End emission into it.
  static std::unique_ptr<TraceLog> merge(
      std::vector<std::unique_ptr<TraceLog>> parts);

  /// Human-readable dump of (up to) the last `maxRows` records.
  void dump(std::ostream& out, std::size_t maxRows = 50) const;

  /// Per-category counts summary line.
  std::string summary() const;

 private:
  struct SvHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct SvEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  void push(const TraceRecord& r);
  static std::size_t trackIndex(TraceCategory cat, int node);

  std::vector<TraceRecord> ring_;  ///< fixed storage, length == capacity
  std::size_t head_ = 0;           ///< index of the oldest record
  std::size_t size_ = 0;           ///< live records (<= capacity)
  std::size_t dropped_ = 0;
  bool dropWarned_ = false;

  std::vector<const std::string*> labels_;  ///< id -> text (owned by map)
  std::unordered_map<std::string, TraceLabelId, SvHash, SvEq> labelIds_;

  /// Per-(category, node) stacks of open span labels; node -1 and
  /// "unknown node" share a track per category.
  std::unordered_map<std::size_t, std::vector<TraceLabelId>> openSpans_;
};

}  // namespace comb::sim
