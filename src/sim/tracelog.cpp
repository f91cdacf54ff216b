#include "sim/tracelog.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/string_util.hpp"

namespace comb::sim {

const char* traceCategoryName(TraceCategory c) {
  switch (c) {
    case TraceCategory::Process: return "process";
    case TraceCategory::Compute: return "compute";
    case TraceCategory::Interrupt: return "interrupt";
    case TraceCategory::Packet: return "packet";
    case TraceCategory::Wire: return "wire";
    case TraceCategory::NicEvent: return "nic-event";
    case TraceCategory::Protocol: return "protocol";
    case TraceCategory::MpiCall: return "mpi-call";
    case TraceCategory::Phase: return "phase";
    case TraceCategory::Fault: return "fault";
    case TraceCategory::Engine: return "engine";
  }
  return "?";
}

namespace {

const char* tracePhaseMark(TracePhase p) {
  switch (p) {
    case TracePhase::Instant: return " ";
    case TracePhase::Begin: return "[";
    case TracePhase::End: return "]";
    case TracePhase::Complete: return "=";
  }
  return "?";
}

}  // namespace

TraceLog::TraceLog(std::size_t capacity) {
  COMB_REQUIRE(capacity > 0, "trace capacity must be positive");
  ring_.resize(capacity);
}

TraceLabelId TraceLog::intern(std::string_view label) {
  if (const auto it = labelIds_.find(label); it != labelIds_.end())
    return it->second;
  const auto id = static_cast<TraceLabelId>(labels_.size());
  const auto [it, inserted] = labelIds_.emplace(std::string(label), id);
  COMB_ASSERT(inserted, "label interned twice");
  labels_.push_back(&it->first);
  return id;
}

std::string_view TraceLog::labelName(TraceLabelId id) const {
  COMB_REQUIRE(id < labels_.size(), "unknown trace label id");
  return *labels_[id];
}

std::unique_ptr<TraceLog> TraceLog::merge(
    std::vector<std::unique_ptr<TraceLog>> parts) {
  std::erase_if(parts, [](const auto& p) { return p == nullptr; });
  if (parts.empty()) return nullptr;
  if (parts.size() == 1) return std::move(parts.front());
  std::size_t capacity = 0, dropped = 0, total = 0;
  for (const auto& p : parts) {
    capacity += p->capacity();
    dropped += p->dropped();
    total += p->size();
  }
  auto out = std::make_unique<TraceLog>(std::max(capacity, total));
  struct Cursor {
    std::size_t part;
    std::size_t idx;
  };
  std::vector<Cursor> order;
  order.reserve(total);
  for (std::size_t pi = 0; pi < parts.size(); ++pi)
    for (std::size_t i = 0; i < parts[pi]->size(); ++i)
      order.push_back(Cursor{pi, i});
  std::sort(order.begin(), order.end(),
            [&parts](const Cursor& a, const Cursor& b) {
              const Time ta = parts[a.part]->record(a.idx).t;
              const Time tb = parts[b.part]->record(b.idx).t;
              if (ta != tb) return ta < tb;
              if (a.part != b.part) return a.part < b.part;
              return a.idx < b.idx;
            });
  for (const Cursor& c : order) {
    TraceRecord r = parts[c.part]->record(c.idx);
    r.label = out->intern(parts[c.part]->labelName(r.label));
    out->push(r);
  }
  out->dropped_ += dropped;
  return out;
}

void TraceLog::push(const TraceRecord& r) {
  if (size_ == ring_.size()) {
    ring_[head_] = r;
    head_ = (head_ + 1) % ring_.size();
    ++dropped_;
    if (!dropWarned_) {
      dropWarned_ = true;
      COMB_LOG(Warn) << "trace ring full (capacity " << ring_.size()
                     << "): oldest records are being dropped; raise the "
                        "trace capacity for complete timelines";
    }
    return;
  }
  ring_[(head_ + size_) % ring_.size()] = r;
  ++size_;
}

const TraceRecord& TraceLog::record(std::size_t i) const {
  COMB_REQUIRE(i < size_, "trace record index out of range");
  return ring_[(head_ + i) % ring_.size()];
}

void TraceLog::emit(Time t, TraceCategory cat, int node,
                    std::string_view label, double a, double b) {
  TraceRecord r;
  r.t = t;
  r.cat = cat;
  r.phase = TracePhase::Instant;
  r.node = node;
  r.label = intern(label);
  r.a = a;
  r.b = b;
  push(r);
}

std::size_t TraceLog::trackIndex(TraceCategory cat, int node) {
  // node -1 maps to track 0 of its category; nodes are dense small ints.
  return static_cast<std::size_t>(node + 1) * kTraceCategoryCount +
         static_cast<std::size_t>(cat);
}

void TraceLog::beginSpan(Time t, TraceCategory cat, int node,
                         std::string_view label, double a) {
  TraceRecord r;
  r.t = t;
  r.cat = cat;
  r.phase = TracePhase::Begin;
  r.node = node;
  r.label = intern(label);
  r.a = a;
  openSpans_[trackIndex(cat, node)].push_back(r.label);
  push(r);
}

void TraceLog::endSpan(Time t, TraceCategory cat, int node,
                       std::string_view label, double a) {
  const TraceLabelId id = intern(label);
  auto& stack = openSpans_[trackIndex(cat, node)];
  if (stack.empty())
    throw Error(strFormat("trace span end '%.*s' (%s, node %d) without an "
                          "open begin",
                          static_cast<int>(label.size()), label.data(),
                          traceCategoryName(cat), node));
  if (stack.back() != id)
    throw Error(strFormat(
        "trace span end '%.*s' does not match open span '%s' (%s, node %d)",
        static_cast<int>(label.size()), label.data(),
        std::string(labelName(stack.back())).c_str(), traceCategoryName(cat),
        node));
  stack.pop_back();
  TraceRecord r;
  r.t = t;
  r.cat = cat;
  r.phase = TracePhase::End;
  r.node = node;
  r.label = id;
  r.a = a;
  push(r);
}

void TraceLog::complete(Time t, Time dur, TraceCategory cat, int node,
                        std::string_view label, double a, double b) {
  COMB_ASSERT(dur >= 0.0, "negative trace span duration");
  TraceRecord r;
  r.t = t;
  r.dur = dur;
  r.cat = cat;
  r.phase = TracePhase::Complete;
  r.node = node;
  r.label = intern(label);
  r.a = a;
  r.b = b;
  push(r);
}

std::size_t TraceLog::openSpans() const {
  std::size_t n = 0;
  for (const auto& [track, stack] : openSpans_) n += stack.size();
  return n;
}

void TraceLog::clear() {
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
  dropWarned_ = false;
  openSpans_.clear();
  // Interned labels survive clear(): ids held by emitters stay valid.
}

std::size_t TraceLog::count(TraceCategory cat, int node) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceRecord& r = record(i);
    if (r.cat == cat && (node < 0 || r.node == node)) ++n;
  }
  return n;
}

std::size_t TraceLog::countSpans(TraceCategory cat, int node) const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceRecord& r = record(i);
    if (r.cat != cat || (node >= 0 && r.node != node)) continue;
    if (r.phase == TracePhase::Begin || r.phase == TracePhase::Complete) ++n;
  }
  return n;
}

std::vector<const TraceRecord*> TraceLog::select(TraceCategory cat,
                                                 int node) const {
  std::vector<const TraceRecord*> out;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceRecord& r = record(i);
    if (r.cat == cat && (node < 0 || r.node == node)) out.push_back(&r);
  }
  return out;
}

std::vector<const TraceRecord*> TraceLog::select(TraceCategory cat,
                                                 std::string_view label,
                                                 int node) const {
  std::vector<const TraceRecord*> out;
  const auto it = labelIds_.find(label);
  if (it == labelIds_.end()) return out;  // label never emitted
  const TraceLabelId id = it->second;
  for (std::size_t i = 0; i < size_; ++i) {
    const TraceRecord& r = record(i);
    if (r.cat == cat && r.label == id && (node < 0 || r.node == node))
      out.push_back(&r);
  }
  return out;
}

void TraceLog::dump(std::ostream& out, std::size_t maxRows) const {
  const std::size_t start = size_ > maxRows ? size_ - maxRows : 0;
  if (dropped_ > 0)
    out << "(" << dropped_ << " older records dropped from the ring)\n";
  if (start > 0) out << "(showing last " << maxRows << " records)\n";
  for (std::size_t i = start; i < size_; ++i) {
    const TraceRecord& r = record(i);
    out << strFormat("%12.6f ms %s %-9s", r.t * 1e3, tracePhaseMark(r.phase),
                     traceCategoryName(r.cat));
    if (r.node >= 0) out << strFormat("  n%d", r.node);
    out << "  " << labelName(r.label);
    if (r.phase == TracePhase::Complete)
      out << strFormat("  dur=%.3gus", r.dur * 1e6);
    if (r.a != 0) out << strFormat("  a=%.6g", r.a);
    if (r.b != 0) out << strFormat("  b=%.6g", r.b);
    out << '\n';
  }
}

std::string TraceLog::summary() const {
  std::string s;
  for (std::size_t c = 0; c < kTraceCategoryCount; ++c) {
    const auto cat = static_cast<TraceCategory>(c);
    const auto n = count(cat);
    if (n > 0) {
      if (!s.empty()) s += ", ";
      s += strFormat("%s=%zu", traceCategoryName(cat), n);
    }
  }
  if (dropped_ > 0) s += strFormat(" (+%zu dropped)", dropped_);
  return s.empty() ? "no trace records" : s;
}

}  // namespace comb::sim
