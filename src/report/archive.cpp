#include "report/archive.hpp"

#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/string_util.hpp"

#ifndef COMB_GIT_SHA
#define COMB_GIT_SHA "unknown"
#endif
#ifndef COMB_BUILD_FLAGS
#define COMB_BUILD_FLAGS "unknown"
#endif
#ifndef COMB_VERSION
#define COMB_VERSION "0.0.0"
#endif

namespace comb::report {

ArchiveProvenance buildProvenance() {
  ArchiveProvenance p;
  p.suite = "comb " COMB_VERSION;
  p.gitSha = COMB_GIT_SHA;
  p.buildFlags = COMB_BUILD_FLAGS;
  return p;
}

namespace {

/// Round-trip-exact double rendering (JSON has no float width limit).
std::string num(double v) { return strFormat("%.17g", v); }

using P = ArchiveProvenance;
constexpr auto kSilent = ProvenanceCompare::Silent;
constexpr auto kDiffers = ProvenanceCompare::NoteIfDiffers;
constexpr auto kBothSet = ProvenanceCompare::NoteIfBothSet;
constexpr const char* kWindowBounds = "window bounds differ";

// clang-format off
constexpr ProvenanceField kProvenanceFields[] = {
  // key, member, required, compare policy, note label, value before/after,
  // consequence
  {"suite", &P::suite, true, kSilent, "", "", "", ""},
  {"git_sha", &P::gitSha, true, kDiffers, "builds differ", "git ", "", ""},
  {"build_flags", &P::buildFlags, true, kSilent, "", "", "", ""},
  {"sim_jobs", &P::simJobs, false, kDiffers, "core configurations differ",
   "--sim-jobs ", "",
   "the shard count is part of the run's identity, so deltas may reflect "
   "the configuration, not the code"},
  {"lookahead", &P::lookahead, false, kDiffers, kWindowBounds,
   "certified lookahead ", " s",
   "sharded results are a pure function of the lookahead, so deltas may "
   "reflect the configuration, not the code"},
  {"lookahead_source", &P::lookaheadSource, false, kDiffers, kWindowBounds,
   " (", ")", ""},
  {"sim_affinity", &P::simAffinity, false, kDiffers,
   "worker affinity differs", "--sim-affinity ", "",
   "wall-time only (results are identical across policies), but "
   "timing-based metrics may not be comparable"},
  {"shard_imbalance", &P::shardImbalance, false, kSilent, "", "", "", ""},
  {"tail_percentiles", &P::tailPercentiles, false, kBothSet,
   "tail percentile bases differ", "{", "}",
   "same-named tail metrics may summarize different quantiles"},
  {"stack", &P::stack, false, kBothSet, "transport stacks differ", "'", "'",
   "this is a cross-configuration comparison; deltas reflect the stack, "
   "not a code regression"},
};
// clang-format on

void writeMetric(std::ostream& out, const ArchiveMetric& m,
                 const char* indent) {
  out << indent << "{\"name\": \"" << json::escape(m.name)
      << "\", \"better\": \"" << (m.higherIsBetter ? "higher" : "lower")
      << "\", \"class\": \"" << json::escape(m.metricClass)
      << "\", \"samples\": [";
  for (std::size_t i = 0; i < m.samples.size(); ++i) {
    if (i) out << ", ";
    out << num(m.samples[i]);
  }
  out << "]}";
}

ArchiveMetric parseMetric(const json::Value& v) {
  ArchiveMetric m;
  m.name = v.at("name").str();
  const std::string& better = v.at("better").str();
  if (better == "higher") {
    m.higherIsBetter = true;
  } else if (better == "lower") {
    m.higherIsBetter = false;
  } else {
    throw ConfigError("archive: metric 'better' must be higher|lower, got '" +
                      better + "'");
  }
  // Archives written before metric classes existed carry only mean-style
  // metrics, which is exactly the default.
  if (const json::Value* cls = v.find("class")) m.metricClass = cls->str();
  for (const auto& s : v.at("samples").array())
    m.samples.push_back(s.number());
  COMB_REQUIRE(!m.samples.empty(),
               "archive: metric '" + m.name + "' has no samples");
  return m;
}

}  // namespace

std::span<const ProvenanceField> provenanceFields() {
  return kProvenanceFields;
}

std::string ProvenanceField::show(const ArchiveProvenance& p) const {
  return std::visit(
      [&](auto m) -> std::string {
        using T = std::remove_cvref_t<decltype(p.*m)>;
        if constexpr (std::is_same_v<T, std::string>)
          return p.*m;
        else if constexpr (std::is_same_v<T, int>)
          return std::to_string(p.*m);
        else
          return strFormat("%g", p.*m);
      },
      member);
}

bool ProvenanceField::noted(const ArchiveProvenance& a,
                            const ArchiveProvenance& b) const {
  const bool differs =
      std::visit([&](auto m) { return a.*m != b.*m; }, member);
  switch (compare) {
    case ProvenanceCompare::Silent:
      return false;
    case ProvenanceCompare::NoteIfDiffers:
      return differs;
    case ProvenanceCompare::NoteIfBothSet:
      return differs && !show(a).empty() && !show(b).empty();
  }
  return false;
}

void writeArchive(std::ostream& out, const Archive& archive) {
  out << "{\n";
  out << "  \"comb_archive_version\": " << archive.version << ",\n";
  out << "  \"bench\": \"" << json::escape(archive.bench) << "\",\n";
  out << "  \"seed\": " << archive.seed << ",\n";
  out << "  \"provenance\": {";
  const char* sep = "";
  for (const ProvenanceField& f : provenanceFields()) {
    out << sep << '"' << f.key << "\": ";
    sep = ", ";
    std::visit(
        [&](auto m) {
          const auto& v = archive.provenance.*m;
          using T = std::remove_cvref_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>)
            out << '"' << json::escape(v) << '"';
          else if constexpr (std::is_same_v<T, int>)
            out << v;
          else
            out << num(v);
        },
        f.member);
  }
  out << "},\n";
  out << "  \"rep_policy\": {\"adaptive\": "
      << (archive.rep.adaptive ? "true" : "false")
      << ", \"reps\": " << archive.rep.reps
      << ", \"min_reps\": " << archive.rep.minReps
      << ", \"max_reps\": " << archive.rep.maxReps
      << ", \"ci_target\": " << num(archive.rep.ciTarget) << "},\n";
  out << "  \"sweeps\": [";
  for (std::size_t s = 0; s < archive.sweeps.size(); ++s) {
    const auto& sweep = archive.sweeps[s];
    out << (s ? ",\n" : "\n");
    out << "    {\n";
    out << "      \"id\": \"" << json::escape(sweep.id) << "\",\n";
    out << "      \"xlabel\": \"" << json::escape(sweep.xlabel) << "\",\n";
    out << "      \"machine\": \"" << json::escape(sweep.machine) << "\",\n";
    out << "      \"machine_hash\": \"" << json::escape(sweep.machineHash)
        << "\",\n";
    out << "      \"points\": [";
    for (std::size_t p = 0; p < sweep.points.size(); ++p) {
      const auto& point = sweep.points[p];
      out << (p ? ",\n" : "\n");
      out << "        {\"x\": " << num(point.x) << ", \"converged\": "
          << (point.converged ? "true" : "false") << ", \"metrics\": [\n";
      for (std::size_t m = 0; m < point.metrics.size(); ++m) {
        if (m) out << ",\n";
        writeMetric(out, point.metrics[m], "          ");
      }
      out << "\n        ]}";
    }
    out << "\n      ]\n    }";
  }
  out << "\n  ]\n}\n";
}

std::string writeArchiveFile(const Archive& archive, const std::string& dir) {
  COMB_REQUIRE(!archive.bench.empty(), "archive: bench id must be set");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + archive.bench + ".json";
  std::ofstream f(path);
  COMB_REQUIRE(f.good(), "cannot open " + path);
  writeArchive(f, archive);
  COMB_REQUIRE(f.good(), "write failed for " + path);
  return path;
}

Archive parseArchive(const json::Value& root, const std::string& sourceName) {
  try {
    Archive a;
    const double ver = root.at("comb_archive_version").number();
    a.version = static_cast<int>(ver);
    if (a.version != kArchiveVersion)
      throw ConfigError(strFormat(
          "unsupported archive version %d (this build reads version %d)",
          a.version, kArchiveVersion));
    a.bench = root.at("bench").str();
    a.seed = static_cast<std::uint64_t>(root.at("seed").number());
    const auto& prov = root.at("provenance");
    for (const ProvenanceField& f : provenanceFields()) {
      const json::Value* v = f.required ? &prov.at(f.key) : prov.find(f.key);
      if (v == nullptr) continue;  // older archive: keep the legacy default
      std::visit(
          [&](auto m) {
            auto& dst = a.provenance.*m;
            using T = std::remove_cvref_t<decltype(dst)>;
            if constexpr (std::is_same_v<T, std::string>)
              dst = v->str();
            else
              dst = static_cast<T>(v->number());
          },
          f.member);
    }
    const auto& rep = root.at("rep_policy");
    a.rep.adaptive = rep.at("adaptive").boolean();
    a.rep.reps = static_cast<int>(rep.at("reps").number());
    a.rep.minReps = static_cast<int>(rep.at("min_reps").number());
    a.rep.maxReps = static_cast<int>(rep.at("max_reps").number());
    a.rep.ciTarget = rep.at("ci_target").number();
    for (const auto& sv : root.at("sweeps").array()) {
      ArchiveSweep sweep;
      sweep.id = sv.at("id").str();
      sweep.xlabel = sv.at("xlabel").str();
      sweep.machine = sv.at("machine").str();
      sweep.machineHash = sv.at("machine_hash").str();
      for (const auto& pv : sv.at("points").array()) {
        ArchivePoint point;
        point.x = pv.at("x").number();
        point.converged = pv.at("converged").boolean();
        for (const auto& mv : pv.at("metrics").array())
          point.metrics.push_back(parseMetric(mv));
        sweep.points.push_back(std::move(point));
      }
      a.sweeps.push_back(std::move(sweep));
    }
    return a;
  } catch (const Error& e) {
    throw ConfigError(sourceName + ": not a valid comb archive: " + e.what());
  }
}

Archive loadArchiveFile(const std::string& path) {
  return parseArchive(json::parseFile(path), path);
}

}  // namespace comb::report
