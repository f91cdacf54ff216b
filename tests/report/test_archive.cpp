#include "report/archive.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "common/json.hpp"

namespace comb::report {
namespace {

Archive sampleArchive() {
  Archive a;
  a.bench = "fig_test";
  a.seed = 0xC04B;
  a.provenance.suite = "comb 1.2.3";
  a.provenance.gitSha = "abc123def456";
  a.provenance.buildFlags = "Release -O2";
  a.provenance.simJobs = 4;
  a.provenance.lookahead = 1.25e-6;
  a.provenance.lookaheadSource = "matrix";
  a.provenance.simAffinity = "compact";
  a.rep.adaptive = true;
  a.rep.reps = 5;
  a.rep.minReps = 3;
  a.rep.maxReps = 12;
  a.rep.ciTarget = 0.04;

  ArchiveSweep s;
  s.id = "polling/portals/100 KB";
  s.xlabel = "poll_interval_iters";
  s.machine = "portals";
  s.machineHash = "0123456789abcdef";

  ArchivePoint p;
  p.x = 10000.0;
  p.converged = false;
  ArchiveMetric m;
  m.name = "bandwidth_MBps";
  m.higherIsBetter = true;
  // Awkward doubles on purpose: the round trip must be exact.
  m.samples = {55.123456789012345, 1e-300, 0.1, 3.0000000000000004};
  p.metrics.push_back(m);
  ArchiveMetric m2;
  m2.name = "latency_us";
  m2.higherIsBetter = false;
  m2.samples = {12.5};
  p.metrics.push_back(m2);
  s.points.push_back(p);
  a.sweeps.push_back(s);
  return a;
}

Archive roundTrip(const Archive& a) {
  std::ostringstream out;
  writeArchive(out, a);
  return parseArchive(json::parse(out.str(), "roundtrip"), "roundtrip");
}

TEST(Archive, RoundTripPreservesEverything) {
  const Archive a = sampleArchive();
  const Archive b = roundTrip(a);

  EXPECT_EQ(b.version, kArchiveVersion);
  EXPECT_EQ(b.bench, a.bench);
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.provenance.suite, a.provenance.suite);
  EXPECT_EQ(b.provenance.gitSha, a.provenance.gitSha);
  EXPECT_EQ(b.provenance.buildFlags, a.provenance.buildFlags);
  EXPECT_EQ(b.provenance.simJobs, a.provenance.simJobs);
  EXPECT_DOUBLE_EQ(b.provenance.lookahead, a.provenance.lookahead);
  EXPECT_EQ(b.provenance.lookaheadSource, a.provenance.lookaheadSource);
  EXPECT_EQ(b.provenance.simAffinity, a.provenance.simAffinity);
  EXPECT_EQ(b.rep.adaptive, a.rep.adaptive);
  EXPECT_EQ(b.rep.reps, a.rep.reps);
  EXPECT_EQ(b.rep.minReps, a.rep.minReps);
  EXPECT_EQ(b.rep.maxReps, a.rep.maxReps);
  EXPECT_DOUBLE_EQ(b.rep.ciTarget, a.rep.ciTarget);

  ASSERT_EQ(b.sweeps.size(), 1u);
  const auto& sa = a.sweeps[0];
  const auto& sb = b.sweeps[0];
  EXPECT_EQ(sb.id, sa.id);
  EXPECT_EQ(sb.xlabel, sa.xlabel);
  EXPECT_EQ(sb.machine, sa.machine);
  EXPECT_EQ(sb.machineHash, sa.machineHash);
  ASSERT_EQ(sb.points.size(), 1u);
  EXPECT_DOUBLE_EQ(sb.points[0].x, sa.points[0].x);
  EXPECT_EQ(sb.points[0].converged, sa.points[0].converged);
  ASSERT_EQ(sb.points[0].metrics.size(), 2u);
  for (std::size_t mi = 0; mi < 2; ++mi) {
    const auto& ma = sa.points[0].metrics[mi];
    const auto& mb = sb.points[0].metrics[mi];
    EXPECT_EQ(mb.name, ma.name);
    EXPECT_EQ(mb.higherIsBetter, ma.higherIsBetter);
    ASSERT_EQ(mb.samples.size(), ma.samples.size());
    for (std::size_t i = 0; i < ma.samples.size(); ++i)
      EXPECT_DOUBLE_EQ(mb.samples[i], ma.samples[i])
          << ma.name << " sample " << i << " did not round-trip exactly";
  }
}

TEST(Archive, SerializationIsDeterministic) {
  const Archive a = sampleArchive();
  std::ostringstream s1, s2;
  writeArchive(s1, a);
  writeArchive(s2, a);
  EXPECT_EQ(s1.str(), s2.str());
}

TEST(Archive, RejectsNewerVersion) {
  const Archive a = sampleArchive();
  std::ostringstream out;
  writeArchive(out, a);
  auto doc = out.str();
  const auto pos = doc.find("\"comb_archive_version\": 1");
  ASSERT_NE(pos, std::string::npos) << doc.substr(0, 200);
  doc.replace(pos, std::string("\"comb_archive_version\": 1").size(),
              "\"comb_archive_version\": 999");
  EXPECT_THROW(parseArchive(json::parse(doc, "v999"), "v999"), ConfigError);
}

TEST(Archive, RejectsNonArchiveJson) {
  EXPECT_THROW(parseArchive(json::parse("{}", "empty"), "empty"),
               ConfigError);
  EXPECT_THROW(parseArchive(json::parse("[1,2]", "arr"), "arr"), ConfigError);
}

TEST(Archive, FileRoundTrip) {
  const Archive a = sampleArchive();
  const std::string dir = ::testing::TempDir() + "comb_archive_test";
  const std::string path = writeArchiveFile(a, dir);
  EXPECT_EQ(path, dir + "/fig_test.json");
  const Archive b = loadArchiveFile(path);
  EXPECT_EQ(b.bench, a.bench);
  ASSERT_EQ(b.sweeps.size(), 1u);
  EXPECT_EQ(b.sweeps[0].id, a.sweeps[0].id);
  std::remove(path.c_str());
}

TEST(Archive, LoadMissingFileThrows) {
  EXPECT_THROW(loadArchiveFile("/nonexistent/a.json"), ConfigError);
}

TEST(Archive, ParsesArchivesWithoutCoreConfigFields) {
  // Archives written before the sharded core ran serial with no window
  // bound and no pinning — dropping the new provenance keys must parse
  // back to exactly those defaults.
  const Archive a = sampleArchive();
  std::ostringstream out;
  writeArchive(out, a);
  auto doc = out.str();
  const auto begin = doc.find(", \"sim_jobs\":");
  const std::string last = "\"sim_affinity\": \"compact\"";
  const auto end = doc.find(last);
  ASSERT_NE(begin, std::string::npos) << doc.substr(0, 400);
  ASSERT_NE(end, std::string::npos) << doc.substr(0, 400);
  doc.erase(begin, end + last.size() - begin);
  const Archive b = parseArchive(json::parse(doc, "legacy"), "legacy");
  EXPECT_EQ(b.provenance.simJobs, 1);
  EXPECT_DOUBLE_EQ(b.provenance.lookahead, 0.0);
  EXPECT_EQ(b.provenance.lookaheadSource, "global-min");
  EXPECT_EQ(b.provenance.simAffinity, "none");
}

// Every provenance row set to a value that differs from its default (and
// holds no comma, so the legacy test below can cut a key out as text).
ArchiveProvenance distinctProvenance() {
  ArchiveProvenance p;
  int i = 0;
  for (const ProvenanceField& f : provenanceFields()) {
    ++i;
    std::visit(
        [&](auto m) {
          auto& v = p.*m;
          using T = std::remove_cvref_t<decltype(v)>;
          if constexpr (std::is_same_v<T, std::string>)
            v = std::string("v-") + f.key;
          else if constexpr (std::is_same_v<T, int>)
            v = i + 1;
          else
            v = i + 0.25;
        },
        f.member);
  }
  return p;
}

bool sameField(const ProvenanceField& f, const ArchiveProvenance& a,
               const ArchiveProvenance& b) {
  return std::visit([&](auto m) { return a.*m == b.*m; }, f.member);
}

TEST(Archive, ProvenanceTableRoundTripsEveryRow) {
  Archive a = sampleArchive();
  a.provenance = distinctProvenance();
  std::ostringstream out;
  writeArchive(out, a);
  const Archive b = parseArchive(json::parse(out.str(), "rows"), "rows");
  ASSERT_EQ(provenanceFields().size(), 10u);
  for (const ProvenanceField& f : provenanceFields()) {
    EXPECT_TRUE(sameField(f, a.provenance, b.provenance)) << f.key;
    // Each key is written exactly once.
    const std::string key = std::string("\"") + f.key + "\": ";
    const auto at = out.str().find(key);
    EXPECT_NE(at, std::string::npos) << f.key;
    EXPECT_EQ(out.str().find(key, at + 1), std::string::npos) << f.key;
  }
}

TEST(Archive, EachOptionalProvenanceKeyFallsBackToItsLegacyDefault) {
  Archive a = sampleArchive();
  a.provenance = distinctProvenance();
  std::ostringstream out;
  writeArchive(out, a);
  const ArchiveProvenance legacy;
  for (const ProvenanceField& dropped : provenanceFields()) {
    SCOPED_TRACE(dropped.key);
    std::string doc = out.str();
    auto begin = doc.find(std::string("\"") + dropped.key + "\": ");
    ASSERT_NE(begin, std::string::npos);
    auto end = doc.find_first_of(",}", begin);
    if (doc[begin - 1] == '{')
      end += 2;  // first key: drop the ", " after it
    else
      begin -= 2;  // drop the ", " before it
    doc.erase(begin, end - begin);
    if (dropped.required) {
      EXPECT_THROW(parseArchive(json::parse(doc, "legacy"), "legacy"),
                   ConfigError);
      continue;
    }
    const Archive b = parseArchive(json::parse(doc, "legacy"), "legacy");
    for (const ProvenanceField& f : provenanceFields())
      EXPECT_TRUE(sameField(f, b.provenance,
                            &f == &dropped ? legacy : a.provenance))
          << f.key;
  }
}

TEST(Archive, BuildProvenanceIsStamped) {
  const auto p = buildProvenance();
  EXPECT_FALSE(p.suite.empty());
  EXPECT_FALSE(p.gitSha.empty());
  EXPECT_FALSE(p.buildFlags.empty());
}

}  // namespace
}  // namespace comb::report
