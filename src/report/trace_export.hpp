// Trace export: turn a sim::TraceLog into files other tools understand.
//
// writeChromeTrace emits the Chrome trace-event JSON format (also consumed
// by Perfetto's legacy importer and `chrome://tracing`): each simulated
// node becomes a process, each lifecycle layer (host / library / NIC /
// wire / progress engine) becomes a named thread track inside it, and
// records map to duration ("B"/"E"), complete ("X"), and instant ("i")
// events with timestamps in microseconds of virtual time.
//
// writeTraceSummary is the text-mode view behind `comb trace --summary`:
// per-category and per-node record counts plus the top-N most
// time-consuming spans.
#pragma once

#include <ostream>

#include "sim/tracelog.hpp"

namespace comb::report {

/// Chrome trace-event JSON ("traceEvents" object form, with COMB metadata
/// recording ring drops so truncated timelines are detectable).
void writeChromeTrace(std::ostream& out, const sim::TraceLog& log);

/// Lifecycle-layer track id for a category (1 = host, 2 = library,
/// 3 = NIC, 4 = wire, 5 = progress engine). Exposed for tests.
int traceLayer(sim::TraceCategory cat);
const char* traceLayerName(int layer);

/// Text summary: per-category / per-node counts and the `topN` longest
/// spans (Begin/End pairs and Complete records).
void writeTraceSummary(std::ostream& out, const sim::TraceLog& log,
                       std::size_t topN = 10);

}  // namespace comb::report
