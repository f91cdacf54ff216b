// One measurement point, timed from outside: the host time of every
// public call the point makes into the simulator modules, the exact
// per-layer counts read back afterwards, and the point's correctness
// verdict.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "backend/machine.hpp"
#include "comb/congestion.hpp"
#include "comb/params.hpp"
#include "common/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host-time spans kept in memory for the traced pass and written as a
/// Chrome trace when the run ends. Each point opens a root span; the
/// calls it makes are its children.
class SpanLog {
 public:
  struct Span {
    const char* name;
    int id;
    int parent;  ///< -1 for a root span
    int point;   ///< -1 for pass-level spans
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  int add(const char* name, int parent, int point, Clock::time_point start,
          Clock::time_point end);
  /// Set the end of a span opened with start == end.
  void close(int id, Clock::time_point end) {
    spans_[static_cast<std::size_t>(id)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Smallest share of a point's wall time that its child spans cover.
  double minChildCoverage() const;
  /// Chrome trace-event JSON; `otherData` is spliced in verbatim.
  void writeChromeTrace(std::ostream& out, const std::string& otherData) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Host times are reported in reference seconds. The hosts this runs on
/// are shared, and their speed drifts by tens of percent within minutes.
/// So a fixed calibration kernel, with the simulator's own mix of heap
/// pops and pushes, hash-map updates and small allocations, runs just
/// before every point. The point's host times are then scaled by
/// kReferenceKernelS / (kernel time): they read as seconds on a machine
/// where the kernel takes exactly kReferenceKernelS.
constexpr double kReferenceKernelS = 1e-3;

/// Run the calibration kernel once; returns its wall time in seconds.
double runCalibrationKernel();

/// Host seconds spent in each public call of one point.
struct HostTimes {
  double machineBuild = 0;  ///< machine definition parse
  double clusterBuild = 0;  ///< SimCluster constructor
  double enableTracing = 0; ///< traced points only
  double launch = 0;
  double run = 0;
  double snapshot = 0;  ///< metricsSnapshot()
  double reduce = 0;    ///< counters and figures folded into the point
  double traceReadout = 0;  ///< traced points only: census + audit
  double teardown = 0;  ///< SimCluster destructor
  double total = 0;

  HostTimes& operator+=(const HostTimes& o) {
    machineBuild += o.machineBuild;
    clusterBuild += o.clusterBuild;
    enableTracing += o.enableTracing;
    launch += o.launch;
    run += o.run;
    snapshot += o.snapshot;
    reduce += o.reduce;
    traceReadout += o.traceReadout;
    teardown += o.teardown;
    total += o.total;
    return *this;
  }
  HostTimes& operator*=(double k) {
    for (double* f : {&machineBuild, &clusterBuild, &enableTracing, &launch,
                      &run, &snapshot, &reduce, &traceReadout, &teardown,
                      &total})
      *f *= k;
    return *this;
  }
};

/// Exact simulated counts, summed over the cluster by module prefix. A
/// pure function of the point's inputs: equal across runs and passes.
struct LayerCounts {
  std::uint64_t events = 0;          ///< sim: eventsExecuted()
  std::uint64_t windows = 0;         ///< sim: Executor windowsExecuted()
  std::uint64_t mpiCalls = 0;        ///< mpi.*.{isend,irecv,test,wait,progress}
  std::uint64_t mpiSends = 0;        ///< completed sends (send_latency count)
  std::uint64_t mpiMessages = 0;     ///< completed receives
  std::uint64_t interrupts = 0;      ///< host.*.interrupts
  std::uint64_t fragsTx = 0;         ///< nic.*.frags_tx
  std::uint64_t fragsRx = 0;         ///< nic.*.frags_rx
  std::uint64_t retransmits = 0;     ///< faultCounters()
  std::uint64_t timeoutWakeups = 0;  ///< faultCounters()
  std::uint64_t duplicatesFiltered = 0;  ///< faultCounters()
  std::uint64_t ptEngineWakeups = 0;     ///< pt.*.engine_wakeups
  std::uint64_t rdmaFallbacks = 0;       ///< rdma.*.unexpected_fallbacks
  std::uint64_t linkPackets = 0;
  std::uint64_t linkBytes = 0;
  std::uint64_t linkDrops = 0;       ///< faultCounters().dropsInjected
  std::uint64_t switchPackets = 0;
  std::uint64_t switchCreditStalls = 0;
  std::uint64_t switchQueuePeak = 0;  ///< max over switches
  std::uint64_t switchNoRouteDrops = 0;
  std::uint64_t latencySamples = 0;  ///< every latency recorder (exec.* excluded)

  bool operator==(const LayerCounts&) const = default;
};

/// TraceLog records per category, traced points only.
struct Census {
  static constexpr std::array<const char*, 7> kNames{
      "interrupt", "packet", "wire", "nic", "protocol", "mpi", "fault"};
  std::array<std::uint64_t, kNames.size()> counts{};
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
};

using Point = std::variant<comb::bench::PollingPoint, comb::bench::PwwPoint,
                           comb::bench::CongestionPoint>;

struct PointResult {
  comb::backend::MachineConfig machine;  ///< parsed from the point's text
  /// kReferenceKernelS / the calibration kernel's time before this point.
  double speed = 1.0;
  HostTimes t;  ///< reference seconds (measured seconds times `speed`)
  LayerCounts c;
  /// Barrier wait summed over executor workers, reference seconds.
  double barrierWaitS = 0;
  int workers = 1;
  double shardImbalance = 1.0;
  /// Merged per-rank MPI receive latencies (simulated, exact).
  comb::metrics::LatencySample recv;
  Point point;
  Census census;
  /// Empty when the point passed every check; else what went wrong.
  std::string failure;
};

/// Run one point. With `spans` set the point runs traced: the simulator's
/// TraceLog is enabled, the census and the overlap audit are read back,
/// and host spans are recorded with `pointId` as the root span's point.
PointResult runPoint(const PointSpec& spec, SpanLog* spans, int pointId);

/// Availability and bandwidth of a point, for the range checks and the
/// traced-twin comparison.
struct Figures {
  double availability = 0;
  double bandwidthBps = 0;
  double simTime = 0;  ///< live time / avg cycle / makespan
  bool operator==(const Figures&) const = default;
};
Figures figuresOf(const Point& p);

}  // namespace perfbench
