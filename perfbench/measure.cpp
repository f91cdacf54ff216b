#include "measure.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <queue>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "backend/machine_file.hpp"
#include "backend/sim_cluster.hpp"
#include "comb/audit.hpp"
#include "comb/polling.hpp"
#include "comb/pww.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"

namespace perfbench {

namespace {

using comb::backend::SimCluster;
using comb::backend::SimProc;
namespace cb = comb::bench;

/// Per-shard ring size for traced points: holds a whole 2-node point, so
/// the overlap audit sees every phase span.
constexpr std::size_t kTraceCapacity = 1 << 20;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Times calls into the simulator; when tracing, records each as a child
/// span of the point.
class Stopwatch {
 public:
  Stopwatch(SpanLog* spans, int parent, int point)
      : spans_(spans), parent_(parent), point_(point) {}

  template <typename F>
  void time(const char* name, double& acc, F&& f) {
    const auto t0 = Clock::now();
    f();
    const auto t1 = Clock::now();
    acc += seconds(t0, t1);
    if (spans_) spans_->add(name, parent_, point_, t0, t1);
  }

 private:
  SpanLog* spans_;
  int parent_;
  int point_;
};

comb::sim::Task<void> pollingDriver(SimProc& env, cb::PollingParams p,
                              cb::PollingPoint& out) {
  out = co_await cb::pollingWorker(env, p);
}

comb::sim::Task<void> pwwDriver(SimProc& env, cb::PwwParams p, cb::PwwPoint& out) {
  out = co_await cb::pwwWorker(env, p);
}

comb::sim::Task<void> congestionDriver(SimProc& env, cb::CongestionParams p,
                                 cb::CongestionNodeResult& out) {
  out = co_await cb::congestionNodeOn(env, p, env.mpi().world());
}

bool hasAffixes(std::string_view s, std::string_view prefix,
                std::string_view suffix) {
  return s.size() >= prefix.size() + suffix.size() && s.starts_with(prefix) &&
         s.ends_with(suffix);
}

/// Sum the cluster's counters by module prefix.
void readCounts(SimCluster& cluster, const comb::metrics::Snapshot& snap,
                PointResult& r) {
  LayerCounts& c = r.c;
  for (const auto& s : snap.counters) {
    const std::string_view n = s.name;
    const auto v = s.value;
    if (n.starts_with("mpi.")) c.mpiCalls += v;
    else if (hasAffixes(n, "host.", ".interrupts")) c.interrupts += v;
    else if (hasAffixes(n, "nic.", ".frags_tx")) c.fragsTx += v;
    else if (hasAffixes(n, "nic.", ".frags_rx")) c.fragsRx += v;
    else if (hasAffixes(n, "pt.", ".engine_wakeups")) c.ptEngineWakeups += v;
    else if (hasAffixes(n, "rdma.", ".unexpected_fallbacks"))
      c.rdmaFallbacks += v;
    else if (hasAffixes(n, "link.", ".packets")) c.linkPackets += v;
    else if (hasAffixes(n, "link.", ".bytes")) c.linkBytes += v;
    else if (hasAffixes(n, "switch.", ".packets")) c.switchPackets += v;
    else if (hasAffixes(n, "switch.", ".credit_stalls"))
      c.switchCreditStalls += v;
    else if (hasAffixes(n, "switch.", ".queue_peak_pkts"))
      c.switchQueuePeak = std::max(c.switchQueuePeak, v);
    else if (hasAffixes(n, "switch.", ".drops_no_route"))
      c.switchNoRouteDrops += v;
  }
  for (const auto& l : snap.latencies) {
    const std::string_view n = l.name;
    if (hasAffixes(n, "exec.w", ".barrier_wait")) {
      r.barrierWaitS += comb::LatencyRecorder::ticksToSeconds(l.sumTicks);
      continue;
    }
    if (n.starts_with("exec.")) continue;
    c.latencySamples += l.count;
    if (hasAffixes(n, "mpi.n", ".send_latency")) c.mpiSends += l.count;
    if (hasAffixes(n, "mpi.n", ".recv_latency")) c.mpiMessages += l.count;
  }
  const auto fault = cluster.faultCounters();
  c.retransmits = fault.retransmits;
  c.timeoutWakeups = fault.timeoutWakeups;
  c.duplicatesFiltered = fault.duplicatesFiltered;
  c.linkDrops = fault.dropsInjected;
  c.events = cluster.eventsExecuted();
  c.windows = cluster.executor().windowsExecuted();
  r.workers = cluster.executor().workers();
  r.shardImbalance = cluster.shardImbalance();
  r.recv = comb::metrics::mergeLatencyFamily(snap, "mpi.n", ".recv_latency");
}

/// The per-point figures the suite reports, from the cluster's state.
template <typename P>
void fillTails(SimCluster& cluster, const comb::metrics::Snapshot& snap,
               const PointResult& r, P& point) {
  point.fault = cluster.faultCounters();
  point.sendTail =
      comb::metrics::mergeLatencyFamily(snap, "mpi.n", ".send_latency").tail();
  point.recvTail = r.recv.tail();
  point.shardImbalance = r.shardImbalance;
}

/// Fold per-node congestion results into the point (makespan-based
/// goodput, availability distribution), as the suite's runner does.
cb::CongestionPoint reduceCongestion(
    const cb::CongestionParams& params,
    std::vector<cb::CongestionNodeResult>& nodes) {
  cb::CongestionPoint point;
  point.nodes = params.nodes;
  point.msgBytes = params.msgBytes;
  point.pattern = params.pattern;
  for (const auto& node : nodes)
    point.makespan = std::max(point.makespan, node.liveTime);
  double totalBytes = 0, availSum = 0, bwSum = 0;
  double minAvail = std::numeric_limits<double>::infinity();
  double minBw = std::numeric_limits<double>::infinity();
  int senders = 0;
  for (auto& node : nodes) {
    const double sent = static_cast<double>(node.messagesSent) *
                        static_cast<double>(params.msgBytes);
    node.bandwidthBps = point.makespan > 0 ? sent / point.makespan : 0.0;
    point.messagesDelivered += node.messagesReceived;
    totalBytes += sent;
    point.nodeBandwidthBps.push_back(node.bandwidthBps);
    point.nodeAvailability.push_back(node.availability);
    availSum += node.availability;
    minAvail = std::min(minAvail, node.availability);
    if (node.messagesSent > 0) {
      ++senders;
      bwSum += node.bandwidthBps;
      minBw = std::min(minBw, node.bandwidthBps);
    }
  }
  point.availability = availSum / static_cast<double>(nodes.size());
  point.minAvailability = minAvail;
  point.meanNodeBandwidthBps = senders > 0 ? bwSum / senders : 0.0;
  point.minNodeBandwidthBps = senders > 0 ? minBw : 0.0;
  point.bandwidthBps = point.makespan > 0 ? totalBytes / point.makespan : 0.0;
  return point;
}

std::string checkPoint(const PointResult& r) {
  const Figures f = figuresOf(r.point);
  if (r.c.mpiSends != r.c.mpiMessages)
    return comb::strFormat("exactly-once: %llu sends completed, %llu receives",
                           static_cast<unsigned long long>(r.c.mpiSends),
                           static_cast<unsigned long long>(r.c.mpiMessages));
  if (!(f.availability >= 0.0 && f.availability <= 1.0))
    return comb::strFormat("availability %.17g outside [0,1]", f.availability);
  if (!(f.bandwidthBps > 0.0)) return "zero bandwidth";
  if (r.c.switchNoRouteDrops != 0)
    return comb::strFormat("%llu no-route switch drops",
                           static_cast<unsigned long long>(
                               r.c.switchNoRouteDrops));
  return {};
}

/// Census, drop count and overlap audit of a traced point.
std::string readTrace(SimCluster& cluster, const PointSpec& spec,
                      PointResult& r) {
  r.census.dropped = cluster.traceDropped();
  const auto log = cluster.releaseTraceLog();
  using comb::sim::TraceCategory;
  constexpr std::array<TraceCategory, Census::kNames.size()> cats{
      TraceCategory::Interrupt, TraceCategory::Packet,
      TraceCategory::Wire,      TraceCategory::NicEvent,
      TraceCategory::Protocol,  TraceCategory::MpiCall,
      TraceCategory::Fault};
  for (std::size_t i = 0; i < cats.size(); ++i)
    r.census.counts[i] = log->count(cats[i]);
  r.census.records = log->size();
  if (spec.method == Method::Polling) {
    const auto& p = std::get<cb::PollingPoint>(r.point);
    return cb::checkPolling(cb::auditPolling(*log), p);
  }
  if (spec.method == Method::Pww) {
    const auto& p = std::get<cb::PwwPoint>(r.point);
    return cb::checkPww(cb::auditPww(*log), p);
  }
  return {};
}

}  // namespace

double runCalibrationKernel() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  const auto t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  std::vector<std::unique_ptr<char[]>> buffers(64);
  std::uint64_t x = 88172645463325252ull;  // xorshift64 state
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < 2048; ++i) heap.push({next() % 100000, i});
  std::uint64_t sum = 0;
  for (std::uint32_t it = 0; it < 8000; ++it) {
    const auto [t, id] = heap.top();
    heap.pop();
    table[(id * 2654435761u) % 8192] += t;
    heap.push({t + next() % 1000, id});
    if (it % 16 == 0)
      buffers[(it / 16) % 64] = std::make_unique<char[]>(256 + it % 256);
    sum += t;
  }
  volatile std::uint64_t sink = sum + table.size();
  (void)sink;
  return seconds(t0, Clock::now());
}

int SpanLog::add(const char* name, int parent, int point,
                 Clock::time_point start, Clock::time_point end) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, id, parent, point, start, end});
  return id;
}

double SpanLog::minChildCoverage() const {
  std::map<int, double> covered;
  for (const auto& s : spans_)
    if (s.parent >= 0) covered[s.parent] += seconds(s.start, s.end);
  double worst = 1.0;
  for (const auto& s : spans_) {
    if (s.parent >= 0 || s.point < 0) continue;
    const double wall = seconds(s.start, s.end);
    if (wall > 0) worst = std::min(worst, covered[s.id] / wall);
  }
  return worst;
}

void SpanLog::writeChromeTrace(std::ostream& out,
                               const std::string& otherData) const {
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << (i ? ",\n" : "\n")
        << comb::strFormat(
               "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
               "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
               "\"point\":%d}}",
               s.name, ts, dur, s.id, s.parent, s.point);
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":" << otherData
      << "}\n";
}

Figures figuresOf(const Point& p) {
  return std::visit(
      [](const auto& pt) {
        using T = std::decay_t<decltype(pt)>;
        Figures f{pt.availability, pt.bandwidthBps, 0.0};
        if constexpr (std::is_same_v<T, cb::PollingPoint>) f.simTime = pt.liveTime;
        else if constexpr (std::is_same_v<T, cb::PwwPoint>)
          f.simTime = pt.avgPost + pt.avgWork + pt.avgWait;
        else f.simTime = pt.makespan;
        return f;
      },
      p);
}

PointResult runPoint(const PointSpec& spec, SpanLog* spans, int pointId) {
  PointResult r;
  r.speed = kReferenceKernelS / runCalibrationKernel();
  const auto start = Clock::now();
  const int root =
      spans ? spans->add("point", -1, pointId, start, start) : -1;
  Stopwatch sw(spans, root, pointId);
  HostTimes& t = r.t;
  std::optional<SimCluster> cluster;
  try {
    sw.time("machine_build", t.machineBuild, [&] {
      std::istringstream in(spec.machineText);
      r.machine = comb::backend::parseMachineFile(in, spec.family);
    });
    sw.time("cluster_ctor", t.clusterBuild, [&] {
      cluster.emplace(r.machine, spec.nodes, spec.simJobs);
    });
    if (spans)
      sw.time("enable_tracing", t.enableTracing,
              [&] { cluster->enableTracing(kTraceCapacity); });

    cb::PollingPoint polling;
    cb::PwwPoint pww;
    std::vector<cb::CongestionNodeResult> nodes;
    sw.time("launch", t.launch, [&] {
      switch (spec.method) {
        case Method::Polling:
          cluster->launch(0, pollingDriver(cluster->proc(0), spec.polling,
                                           polling), "polling-worker");
          cluster->launch(1, cb::pollingSupport(cluster->proc(1), spec.polling),
                          "polling-support");
          break;
        case Method::Pww:
          cluster->launch(0, pwwDriver(cluster->proc(0), spec.pww, pww),
                          "pww-worker");
          cluster->launch(1, cb::pwwSupport(cluster->proc(1), spec.pww),
                          "pww-support");
          break;
        case Method::Congestion:
          nodes.resize(static_cast<std::size_t>(spec.nodes));
          for (int k = 0; k < spec.nodes; ++k)
            cluster->launch(k, congestionDriver(cluster->proc(k),
                                                spec.congestion, nodes[k]),
                            "congestion-node");
          break;
      }
    });
    sw.time("run", t.run, [&] { cluster->run(); });

    comb::metrics::Snapshot snap;
    sw.time("metrics_snapshot", t.snapshot,
            [&] { snap = cluster->metricsSnapshot(); });
    sw.time("reduce", t.reduce, [&] {
      readCounts(*cluster, snap, r);
      switch (spec.method) {
        case Method::Polling:
          fillTails(*cluster, snap, r, polling);
          r.point = polling;
          break;
        case Method::Pww:
          fillTails(*cluster, snap, r, pww);
          r.point = pww;
          break;
        case Method::Congestion: {
          auto point = reduceCongestion(spec.congestion, nodes);
          point.switches = cluster->fabric().switchTotals();
          fillTails(*cluster, snap, r, point);
          r.point = std::move(point);
          break;
        }
      }
      r.failure = checkPoint(r);
    });
    if (spans)
      sw.time("trace_readout", t.traceReadout, [&] {
        const auto audit = readTrace(*cluster, spec, r);
        if (r.failure.empty() && !audit.empty()) r.failure = "audit: " + audit;
      });
  } catch (const comb::Error& e) {
    r.failure = std::string("error: ") + e.what();
  }
  sw.time("teardown", t.teardown, [&] { cluster.reset(); });
  const auto end = Clock::now();
  t.total = seconds(start, end);
  t *= r.speed;
  r.barrierWaitS *= r.speed;
  if (spans) spans->close(root, end);
  return r;
}

}  // namespace perfbench
