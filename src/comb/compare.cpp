#include "comb/compare.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"

namespace comb::bench {

const char* verdictName(Verdict v) {
  switch (v) {
    case Verdict::Ok:
      return "ok";
    case Verdict::Regressed:
      return "REGRESSED";
    case Verdict::Improved:
      return "improved";
  }
  return "?";
}

const char* metricClassName(MetricClass c) {
  switch (c) {
    case MetricClass::All:
      return "all";
    case MetricClass::Mean:
      return "mean";
    case MetricClass::Tail:
      return "tail";
  }
  return "?";
}

MetricClass parseMetricClass(std::string_view s) {
  if (s == "all") return MetricClass::All;
  if (s == "mean") return MetricClass::Mean;
  if (s == "tail") return MetricClass::Tail;
  throw ConfigError("--metric-class must be all | mean | tail, got '" +
                    std::string(s) + "'");
}

namespace {

/// True when the archived metric's class passes the --metric-class filter.
/// Archives written before metric classes existed carry "mean" implicitly.
bool classSelected(const report::ArchiveMetric& m, MetricClass filter) {
  switch (filter) {
    case MetricClass::All:
      return true;
    case MetricClass::Mean:
      return m.metricClass != "tail";
    case MetricClass::Tail:
      return m.metricClass == "tail";
  }
  return true;
}

/// Signed relative delta with the same denominator as stats::relDiff.
double signedRelDelta(double baseline, double candidate) {
  const double denom = std::max(std::fabs(baseline), std::fabs(candidate));
  return denom == 0.0 ? 0.0 : (candidate - baseline) / denom;
}

CompareRow compareSamples(const std::string& sweepId, double x,
                          const report::ArchiveMetric& a,
                          const report::ArchiveMetric& b,
                          const CompareOptions& opts) {
  CompareRow row;
  row.sweep = sweepId;
  row.x = x;
  row.metric = a.name;
  row.baseline = median(a.samples);
  row.candidate = median(b.samples);
  row.relDelta = signedRelDelta(row.baseline, row.candidate);

  // Significance: do the two sample sets plausibly disagree?
  bool significant = false;
  const auto mwu = mannWhitneyU(a.samples, b.samples);
  if (mwu.usable) {
    row.pValue = mwu.pValue;
    row.basis = "mwu";
    significant = mwu.pValue < opts.alpha;
    if (!significant && a.samples.size() >= 2 && b.samples.size() >= 2) {
      // MWU is conservative at small n; disjoint bootstrap CIs on the
      // means are independent evidence of a real shift.
      BootstrapOptions bo;
      bo.seed = opts.seed;
      if (bootstrapMeanCi(a.samples, bo)
              .disjointFrom(bootstrapMeanCi(b.samples, bo))) {
        significant = true;
        row.basis = "ci";
      }
    }
  } else if (a.samples.size() >= 2 && b.samples.size() >= 2) {
    BootstrapOptions bo;
    bo.seed = opts.seed;
    significant = bootstrapMeanCi(a.samples, bo)
                      .disjointFrom(bootstrapMeanCi(b.samples, bo));
    row.basis = "ci";
  } else {
    // A single rep on either side: the simulator is deterministic, so
    // any numeric difference is a real difference.
    significant = row.baseline != row.candidate;
    row.basis = "exact";
  }

  if (significant && std::fabs(row.relDelta) > opts.tolerance) {
    const bool worse =
        a.higherIsBetter ? row.relDelta < 0.0 : row.relDelta > 0.0;
    row.verdict = worse ? Verdict::Regressed : Verdict::Improved;
  }
  return row;
}

/// One note per provenance label whose rows the compare policy flags, in
/// table order. A label's note shows every row of the label, so the
/// lookahead and its source read as one "window bounds differ" note.
void provenanceNotes(const report::ArchiveProvenance& a,
                     const report::ArchiveProvenance& b,
                     std::vector<std::string>& notes) {
  const auto fields = report::provenanceFields();
  for (auto first = fields.begin(); first != fields.end(); ++first) {
    const std::string_view label = first->label;
    const auto sameLabel = [&](const report::ProvenanceField& f) {
      return label == f.label;
    };
    if (label.empty() || std::any_of(fields.begin(), first, sameLabel))
      continue;
    bool noted = false;
    std::string was, now;
    for (auto f = first; f != fields.end(); ++f) {
      if (!sameLabel(*f)) continue;
      noted = noted || f->noted(a, b);
      was += f->before + f->show(a) + f->after;
      now += f->before + f->show(b) + f->after;
    }
    if (!noted) continue;
    std::string note = std::string(label) + ": baseline " + was +
                       ", candidate " + now;
    if (*first->consequence) note += std::string(" — ") + first->consequence;
    notes.push_back(std::move(note));
  }
}

void tally(CompareReport& report) {
  report.regressed = report.improved = 0;
  for (const auto& row : report.rows) {
    if (row.verdict == Verdict::Regressed) ++report.regressed;
    if (row.verdict == Verdict::Improved) ++report.improved;
  }
}

}  // namespace

CompareReport compareArchives(const report::Archive& baseline,
                              const report::Archive& candidate,
                              const CompareOptions& opts) {
  COMB_REQUIRE(opts.tolerance >= 0.0, "--tolerance must be >= 0");
  COMB_REQUIRE(opts.alpha > 0.0 && opts.alpha < 1.0,
               "--alpha outside (0,1)");
  CompareReport report;
  provenanceNotes(baseline.provenance, candidate.provenance, report.notes);
  if (baseline.seed != candidate.seed)
    report.notes.push_back(strFormat(
        "seeds differ: baseline %llu, candidate %llu",
        (unsigned long long)baseline.seed,
        (unsigned long long)candidate.seed));
  if (baseline.rep.reps != candidate.rep.reps ||
      baseline.rep.adaptive != candidate.rep.adaptive)
    report.notes.push_back(strFormat(
        "rep counts differ: baseline %s%d rep(s), candidate %s%d rep(s) — "
        "percentile estimates sharpen with sample count, so tail deltas may "
        "reflect the repetition budget, not the code",
        baseline.rep.adaptive ? "adaptive up to " : "",
        baseline.rep.adaptive ? baseline.rep.maxReps : baseline.rep.reps,
        candidate.rep.adaptive ? "adaptive up to " : "",
        candidate.rep.adaptive ? candidate.rep.maxReps : candidate.rep.reps));

  std::map<std::string, const report::ArchiveSweep*> bSweeps;
  for (const auto& s : candidate.sweeps) bSweeps.emplace(s.id, &s);

  for (const auto& sa : baseline.sweeps) {
    const auto it = bSweeps.find(sa.id);
    if (it == bSweeps.end()) {
      report.notes.push_back("sweep '" + sa.id +
                             "' missing from the candidate archive");
      continue;
    }
    const auto& sb = *it->second;
    bSweeps.erase(it);
    if (sa.machineHash != sb.machineHash)
      report.notes.push_back(
          "sweep '" + sa.id +
          "': machine models differ (hash " + sa.machineHash + " vs " +
          sb.machineHash + ") — deltas reflect the model, not the code");
    if (sa.xlabel != sb.xlabel)
      report.notes.push_back("sweep '" + sa.id + "': x-labels differ (" +
                             sa.xlabel + " vs " + sb.xlabel +
                             ") — points are matched by x value");

    std::map<double, const report::ArchivePoint*> bPoints;
    for (const auto& p : sb.points) bPoints.emplace(p.x, &p);
    for (const auto& pa : sa.points) {
      const auto pit = bPoints.find(pa.x);
      if (pit == bPoints.end()) {
        report.notes.push_back(strFormat(
            "sweep '%s': point x=%g missing from the candidate archive",
            sa.id.c_str(), pa.x));
        continue;
      }
      const auto& pb = *pit->second;
      bPoints.erase(pit);
      for (const auto& ma : pa.metrics) {
        if (!classSelected(ma, opts.metricClass)) continue;
        const auto mb = std::find_if(
            pb.metrics.begin(), pb.metrics.end(),
            [&](const report::ArchiveMetric& m) { return m.name == ma.name; });
        if (mb == pb.metrics.end()) {
          report.notes.push_back(strFormat(
              "sweep '%s' x=%g: metric '%s' missing from the candidate",
              sa.id.c_str(), pa.x, ma.name.c_str()));
          continue;
        }
        if (ma.higherIsBetter != mb->higherIsBetter) {
          report.notes.push_back(strFormat(
              "sweep '%s' x=%g: metric '%s' direction disagrees; skipped",
              sa.id.c_str(), pa.x, ma.name.c_str()));
          continue;
        }
        report.rows.push_back(
            compareSamples(sa.id, pa.x, ma, *mb, opts));
      }
    }
    for (const auto& [x, p] : bPoints) {
      (void)p;
      report.notes.push_back(strFormat(
          "sweep '%s': point x=%g only in the candidate archive",
          sa.id.c_str(), x));
    }
  }
  for (const auto& [id, s] : bSweeps) {
    (void)s;
    report.notes.push_back("sweep '" + id +
                           "' only in the candidate archive");
  }
  tally(report);
  return report;
}

CompareReport compareBenchJson(const json::Value& root,
                               const CompareOptions& opts) {
  const json::Value* base = root.find("baseline");
  const json::Value* cur = root.find("current");
  if (!base || !cur)
    throw ConfigError(
        "bench baseline file needs top-level 'baseline' and 'current' "
        "blocks (BENCH_sim_core.json shape)");

  CompareReport report;
  const auto compareBlock = [&](const char* block, const char* valueKey,
                                bool higherIsBetter) {
    const json::Value* a = base->find(block);
    const json::Value* b = cur->find(block);
    if (!a || !b) return;
    for (const auto& [name, av] : a->members()) {
      const json::Value* bv = b->find(name);
      if (!bv) {
        report.notes.push_back(std::string(block) + "." + name +
                               " missing from the current block");
        continue;
      }
      report::ArchiveMetric ma, mb;
      ma.name = mb.name = name;
      ma.higherIsBetter = mb.higherIsBetter = higherIsBetter;
      // Scalars or {valueKey: scalar} objects are both accepted.
      ma.samples = {av.isObject() ? av.at(valueKey).number() : av.number()};
      mb.samples = {bv->isObject() ? bv->at(valueKey).number() : bv->number()};
      auto row = compareSamples(block, 0.0, ma, mb, opts);
      row.metric = name;
      report.rows.push_back(std::move(row));
    }
  };
  compareBlock("benchmarks", "items_per_second", /*higherIsBetter=*/true);
  compareBlock("figure_wallclock_seconds", "", /*higherIsBetter=*/false);
  tally(report);
  return report;
}

void renderCompare(std::ostream& out, const CompareReport& report,
                   bool all) {
  TextTable table({"sweep", "x", "metric", "baseline", "candidate", "delta%",
                   "p", "basis", "verdict"});
  std::size_t shown = 0;
  for (const auto& row : report.rows) {
    if (!all && row.verdict == Verdict::Ok) continue;
    ++shown;
    table.addRow({row.sweep, strFormat("%g", row.x), row.metric,
                  strFormat("%.6g", row.baseline),
                  strFormat("%.6g", row.candidate),
                  strFormat("%+.2f", 100.0 * row.relDelta),
                  std::isnan(row.pValue) ? std::string("-")
                                         : strFormat("%.4f", row.pValue),
                  row.basis, verdictName(row.verdict)});
  }
  if (shown > 0) table.render(out);
  for (const auto& note : report.notes) out << "note: " << note << '\n';
  out << strFormat(
      "compared %zu metric point(s): %d regressed, %d improved, %zu ok\n",
      report.rows.size(), report.regressed, report.improved,
      report.rows.size() -
          static_cast<std::size_t>(report.regressed + report.improved));
}

}  // namespace comb::bench
