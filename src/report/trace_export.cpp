#include "report/trace_export.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/string_util.hpp"
#include "common/table.hpp"

namespace comb::report {

int traceLayer(sim::TraceCategory cat) {
  using C = sim::TraceCategory;
  switch (cat) {
    case C::Process:
    case C::Compute:
    case C::Interrupt:
    case C::Phase:
      return 1;  // host
    case C::MpiCall:
    case C::Protocol:
      return 2;  // library
    case C::NicEvent:
    case C::Packet:
      return 3;  // NIC
    case C::Wire:
    case C::Fault:
      return 4;  // wire
    case C::Engine:
      return 5;  // progress engine
  }
  return 0;
}

const char* traceLayerName(int layer) {
  switch (layer) {
    case 1: return "host";
    case 2: return "library";
    case 3: return "nic";
    case 4: return "wire";
    case 5: return "engine";
  }
  return "?";
}

namespace {

void writeJsonString(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

const char* phaseCode(sim::TracePhase p) {
  switch (p) {
    case sim::TracePhase::Instant: return "i";
    case sim::TracePhase::Begin: return "B";
    case sim::TracePhase::End: return "E";
    case sim::TracePhase::Complete: return "X";
  }
  return "i";
}

/// A closed span reconstructed from the log, for the summary's top-N.
struct ClosedSpan {
  Time start = 0;
  Time dur = 0;
  sim::TraceCategory cat = sim::TraceCategory::Process;
  int node = -1;
  sim::TraceLabelId label = 0;
};

/// Replay Begin/End pairing (the log enforces it at emission time) and
/// collect every closed span plus all Complete records.
std::vector<ClosedSpan> collectSpans(const sim::TraceLog& log) {
  std::vector<ClosedSpan> spans;
  std::map<std::size_t, std::vector<std::pair<sim::TraceLabelId, Time>>> open;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const sim::TraceRecord& r = log.record(i);
    const std::size_t track =
        static_cast<std::size_t>(r.node + 1) * sim::kTraceCategoryCount +
        static_cast<std::size_t>(r.cat);
    switch (r.phase) {
      case sim::TracePhase::Begin:
        open[track].push_back({r.label, r.t});
        break;
      case sim::TracePhase::End: {
        auto& stack = open[track];
        // A ring that dropped old records can orphan an End; skip those.
        if (stack.empty() || stack.back().first != r.label) break;
        spans.push_back(
            {stack.back().second, r.t - stack.back().second, r.cat, r.node,
             r.label});
        stack.pop_back();
        break;
      }
      case sim::TracePhase::Complete:
        spans.push_back({r.t, r.dur, r.cat, r.node, r.label});
        break;
      case sim::TracePhase::Instant:
        break;
    }
  }
  return spans;
}

}  // namespace

void writeChromeTrace(std::ostream& out, const sim::TraceLog& log) {
  out << "{\n\"otherData\": {\"tool\": \"comb\", \"dropped\": "
      << log.dropped() << ", \"records\": " << log.size()
      << "},\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";

  bool first = true;
  const auto sep = [&] {
    out << (first ? "\n" : ",\n");
    first = false;
  };

  // Metadata: name each (process, thread) pair actually used.
  std::set<int> pids;
  std::set<std::pair<int, int>> tracks;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const sim::TraceRecord& r = log.record(i);
    pids.insert(r.node + 1);
    tracks.insert({r.node + 1, traceLayer(r.cat)});
  }
  for (const int pid : pids) {
    sep();
    out << "{\"ph\": \"M\", \"pid\": " << pid
        << ", \"name\": \"process_name\", \"args\": {\"name\": \"";
    if (pid == 0)
      out << "machine";
    else
      out << "node " << pid - 1;
    out << "\"}}";
  }
  for (const auto& [pid, tid] : tracks) {
    sep();
    out << "{\"ph\": \"M\", \"pid\": " << pid << ", \"tid\": " << tid
        << ", \"name\": \"thread_name\", \"args\": {\"name\": \""
        << traceLayerName(tid) << "\"}}";
  }

  for (std::size_t i = 0; i < log.size(); ++i) {
    const sim::TraceRecord& r = log.record(i);
    sep();
    out << "{\"ph\": \"" << phaseCode(r.phase)
        << "\", \"pid\": " << r.node + 1
        << ", \"tid\": " << traceLayer(r.cat) << ", \"ts\": "
        << strFormat("%.3f", r.t * 1e6);
    if (r.phase == sim::TracePhase::Complete)
      out << ", \"dur\": " << strFormat("%.3f", r.dur * 1e6);
    if (r.phase == sim::TracePhase::Instant) out << ", \"s\": \"t\"";
    out << ", \"cat\": \"" << sim::traceCategoryName(r.cat)
        << "\", \"name\": ";
    writeJsonString(out, log.labelName(r.label));
    if (r.a != 0 || r.b != 0) {
      out << ", \"args\": {\"a\": " << strFormat("%.9g", r.a)
          << ", \"b\": " << strFormat("%.9g", r.b) << "}";
    }
    out << "}";
  }

  // Latency counter tracks: one Perfetto counter per (node, category)
  // carrying each closed span's duration at its end time. The library and
  // interrupt tracks are the tail-latency view — an OS-noise window or a
  // slow MPI completion shows up as a spike, exactly where the latency
  // recorders put it in the histogram.
  using C = sim::TraceCategory;
  for (const ClosedSpan& s : collectSpans(log)) {
    if (s.cat != C::MpiCall && s.cat != C::Protocol && s.cat != C::Interrupt)
      continue;
    sep();
    out << "{\"ph\": \"C\", \"pid\": " << s.node + 1
        << ", \"tid\": " << traceLayer(s.cat) << ", \"ts\": "
        << strFormat("%.3f", (s.start + s.dur) * 1e6) << ", \"name\": \""
        << sim::traceCategoryName(s.cat) << "_latency\", \"args\": {\"us\": "
        << strFormat("%.3f", s.dur * 1e6) << "}}";
  }
  out << "\n]\n}\n";
}

void writeTraceSummary(std::ostream& out, const sim::TraceLog& log,
                       std::size_t topN) {
  out << "trace: " << log.size() << " record(s)";
  if (log.dropped() > 0)
    out << " (+" << log.dropped() << " dropped — timeline truncated)";
  out << "\n\n";
  if (log.size() == 0) return;

  // Per-category counts, split per node.
  std::set<int> nodes;
  for (std::size_t i = 0; i < log.size(); ++i)
    nodes.insert(log.record(i).node);
  std::vector<std::string> headers{"category", "records", "spans"};
  for (const int n : nodes)
    headers.push_back(n < 0 ? std::string("global") : strFormat("n%d", n));
  TextTable counts(headers);
  // count(cat, node) treats node < 0 as "no filter", so tally the
  // per-(category, node) cells directly.
  std::map<std::pair<std::size_t, int>, std::size_t> cell;
  for (std::size_t i = 0; i < log.size(); ++i) {
    const sim::TraceRecord& r = log.record(i);
    ++cell[{static_cast<std::size_t>(r.cat), r.node}];
  }
  for (std::size_t c = 0; c < sim::kTraceCategoryCount; ++c) {
    const auto cat = static_cast<sim::TraceCategory>(c);
    if (log.count(cat) == 0) continue;
    std::vector<std::string> row;
    row.push_back(sim::traceCategoryName(cat));
    row.push_back(strFormat("%zu", log.count(cat)));
    row.push_back(strFormat("%zu", log.countSpans(cat)));
    for (const int n : nodes) row.push_back(strFormat("%zu", cell[{c, n}]));
    counts.addRow(std::move(row));
  }
  counts.render(out);

  auto spans = collectSpans(log);
  if (spans.empty()) return;
  std::sort(spans.begin(), spans.end(),
            [](const ClosedSpan& x, const ClosedSpan& y) {
              return x.dur > y.dur;
            });
  if (spans.size() > topN) spans.resize(topN);
  out << "\ntop " << spans.size() << " spans by duration:\n";
  TextTable top({"start(ms)", "dur(us)", "category", "node", "label"});
  for (const ClosedSpan& s : spans) {
    top.addRow({strFormat("%.6f", s.start * 1e3),
                strFormat("%.3f", s.dur * 1e6),
                sim::traceCategoryName(s.cat),
                s.node < 0 ? std::string("-") : strFormat("%d", s.node),
                std::string(log.labelName(s.label))});
  }
  top.render(out);
}

}  // namespace comb::report
