// Result archives: the versioned JSON format behind the statistical
// regression gate.
//
// One archive = one bench invocation. It records, per sweep and per
// point, the raw per-repetition samples of every reported metric —
// not just their means — plus enough provenance (machine hash, seed,
// git SHA, build flags) for `comb compare` to decide whether two
// archives are comparable at all. See docs/regression_gating.md for the
// schema and the comparison semantics built on top of it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <variant>
#include <vector>

namespace comb::json {
class Value;
}

namespace comb::report {

/// Bumped whenever the schema changes shape; readers reject newer
/// versions instead of guessing.
inline constexpr int kArchiveVersion = 1;

/// One metric of one sweep point: the raw per-rep samples and the
/// direction a regression moves in.
struct ArchiveMetric {
  std::string name;
  bool higherIsBetter = true;
  /// Metric class for `comb compare --metric-class` filtering: "mean"
  /// (central-tendency metrics — the default, and what archives written
  /// before this field carry) or "tail" (latency-distribution percentile
  /// metrics such as recv_p999_us).
  std::string metricClass = "mean";
  std::vector<double> samples;
};

struct ArchivePoint {
  double x = 0.0;  ///< swept-axis value
  /// Adaptive-rep runs: whether the CI target was reached within the rep
  /// budget. Fixed-rep runs are always "converged".
  bool converged = true;
  std::vector<ArchiveMetric> metrics;
};

struct ArchiveSweep {
  std::string id;      ///< e.g. "polling/portals/100 KB"
  std::string xlabel;  ///< swept-axis name, e.g. "poll_interval_iters"
  std::string machine;
  std::string machineHash;  ///< backend::machineHash of the model used
  std::vector<ArchivePoint> points;
};

/// Where the numbers came from: stamped at build time (configure-time git
/// SHA + compiler flags) so an archive can never silently mix builds.
struct ArchiveProvenance {
  std::string suite;       ///< "comb <version>"
  std::string gitSha;      ///< configure-time HEAD, "unknown" outside git
  std::string buildFlags;  ///< build type + CXX flags
  /// Simulator-core shard count (--sim-jobs) the samples ran under. Part
  /// of the run's configuration identity: `comb compare` flags archives
  /// whose values differ. Archives written before this field default to 1
  /// (the serial core, which is what they ran).
  int simJobs = 1;
  /// Certified conservative lookahead (seconds) the sharded windows ran
  /// under: the scalar floor every cross-shard bound respects (the
  /// minimum fabric link latency, taken across the archive's machines
  /// when sweeps mix models). 0 for serial runs — the serial core has no
  /// window bound at all.
  double lookahead = 0.0;
  /// Which mechanism bounded the windows: "global-min" (the scalar
  /// fabric-wide minimum — serial runs and pre-matrix archives) or
  /// "matrix" (per-shard-pair bounds derived from the wired topology,
  /// every entry certified against the scalar floor above).
  std::string lookaheadSource = "global-min";
  /// Shard-worker pinning policy (--sim-affinity). Wall-time only —
  /// results are identical across policies — but stamped so performance
  /// comparisons can flag cross-policy runs.
  std::string simAffinity = "none";
  /// Largest executor shard imbalance observed across the archive's runs
  /// (max per-shard events / mean per-shard events; 1.0 = serial core or
  /// perfectly balanced shards). Deterministic — a pure function of the
  /// program and partition — so it is part of the run's identity.
  double shardImbalance = 1.0;
  /// Percentile base of the archived tail-class metrics. Empty for
  /// archives written before tail metrics existed; `comb compare` notes
  /// when two non-empty bases differ.
  std::string tailPercentiles;
  /// Transport stack the archive's sweeps ran on ("gm", "portals",
  /// "progress_thread", "rdma", or "mixed" when sweeps span stacks).
  /// Empty for archives written before the field existed; `comb compare`
  /// notes when two non-empty stacks differ.
  std::string stack;
};

/// How `comb compare` treats a provenance field.
enum class ProvenanceCompare {
  Silent,         ///< never noted
  NoteIfDiffers,  ///< noted whenever the two values differ
  /// Noted only when both values are non-empty and differ (the field is
  /// empty in archives written before it existed).
  NoteIfBothSet,
};

/// One row per ArchiveProvenance field. writeArchive, parseArchive and
/// compareArchives all walk provenanceFields(), so adding a field is one
/// member plus one row.
struct ProvenanceField {
  const char* key;  ///< JSON key inside "provenance"
  std::variant<std::string ArchiveProvenance::*, int ArchiveProvenance::*,
               double ArchiveProvenance::*>
      member;
  /// Required keys must be present; an optional key missing from an older
  /// archive leaves the member at its default, which is the legacy value.
  bool required;
  ProvenanceCompare compare;
  /// Note label, e.g. "window bounds differ". Rows sharing a label give
  /// one note that shows each row's value in table order.
  const char* label;
  const char* before;       ///< text before the value in the note
  const char* after;        ///< text after the value in the note
  /// Why the difference matters ("" = nothing to add); a label shared by
  /// several rows uses its first row's.
  const char* consequence;

  /// The member's value as note text (%d, %g or the string itself).
  std::string show(const ArchiveProvenance& p) const;
  /// True when this row's compare policy notes the pair.
  bool noted(const ArchiveProvenance& a, const ArchiveProvenance& b) const;
};

/// Every provenance field, in the order archives write them.
std::span<const ProvenanceField> provenanceFields();

/// The percentile base this build's tail metrics are computed on.
inline constexpr const char* kTailPercentiles = "p50,p90,p99,p999";

/// The build stamp of this binary.
ArchiveProvenance buildProvenance();

/// Echo of the repetition policy the samples were collected under.
struct ArchiveRepInfo {
  bool adaptive = false;
  int reps = 1;
  int minReps = 3;
  int maxReps = 20;
  double ciTarget = 0.05;
};

struct Archive {
  int version = kArchiveVersion;
  std::string bench;  ///< bench id, e.g. "fig04"; also the file stem
  std::uint64_t seed = 0;
  ArchiveProvenance provenance;
  ArchiveRepInfo rep;
  std::vector<ArchiveSweep> sweeps;
};

/// Serialize as JSON (stable member order, round-trip-exact doubles).
void writeArchive(std::ostream& out, const Archive& archive);

/// Write `<dir>/<bench>.json`, creating the directory. Returns the path.
std::string writeArchiveFile(const Archive& archive, const std::string& dir);

/// Deserialize; throws comb::ConfigError on schema or version mismatches.
Archive parseArchive(const json::Value& root, const std::string& sourceName);
Archive loadArchiveFile(const std::string& path);

}  // namespace comb::report
