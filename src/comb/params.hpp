// Parameters and result records for the COMB methods.
#pragma once

#include <cstdint>
#include <vector>

#include "common/latency_recorder.hpp"
#include "common/units.hpp"
#include "mpi/types.hpp"
#include "net/fault.hpp"

namespace comb::bench {

// ---------------------------------------------------------------------------
// Polling method (paper §2.1, Figs 1-2)
// ---------------------------------------------------------------------------

struct PollingParams {
  Bytes msgBytes = 100 * 1024;
  /// Messages kept in flight per direction ("queue of messages at each
  /// node ... to maximize achievable bandwidth"; 1 degenerates to a
  /// standard ping-pong, paper §2.1).
  int queueDepth = 8;
  /// Inner delay-loop iterations between polls — the primary variable.
  std::uint64_t pollInterval = 10'000;
  /// The runner picks the number of polls so the measured window lasts at
  /// least `targetDuration`, bounded by [minPolls, maxPolls].
  Time targetDuration = 60e-3;
  std::uint64_t minPolls = 6;
  std::uint64_t maxPolls = 60'000;

  mpi::Tag dataTag = 1;
  mpi::Tag ctrlTag = 2;

  bool operator==(const PollingParams&) const = default;
};

struct PollingPoint {
  using Param = PollingParams;
  std::uint64_t pollInterval = 0;
  Bytes msgBytes = 0;
  /// time(work, no messaging) / time(same work + MPI calls, messaging).
  double availability = 0.0;
  /// One-direction goodput observed by the worker (bytes/second).
  double bandwidthBps = 0.0;
  Time dryTime = 0.0;
  Time liveTime = 0.0;
  std::uint64_t messagesReceived = 0;
  std::uint64_t pollsExecuted = 0;
  /// Fault-injection/reliability counters for the whole cluster run (all
  /// zero on a lossless fabric). Filled in by the point runner.
  net::FaultCounters fault;
  /// Per-message MPI completion-latency distribution summaries, merged
  /// across every rank's base send/recv recorder (phase-scoped variants
  /// excluded). Filled in by the point runner; zero when the run recorded
  /// no messages.
  TailSummary sendTail;
  TailSummary recvTail;
  /// Executor load imbalance (sim/executor shardImbalance): 1.0 for the
  /// serial core and perfectly balanced shards.
  double shardImbalance = 1.0;

  bool operator==(const PollingPoint&) const = default;
};

// ---------------------------------------------------------------------------
// Post-Work-Wait method (paper §2.2, Fig 3)
// ---------------------------------------------------------------------------

struct PwwParams {
  Bytes msgBytes = 100 * 1024;
  /// Non-blocking send/recv pairs posted per cycle. The paper's current
  /// PWW exchanges a single message each way per cycle.
  int batch = 1;
  /// Work-loop iterations in the work phase — the primary variable.
  std::uint64_t workInterval = 100'000;
  /// Measured post-work-wait cycles (first cycle is warm-up, excluded).
  int reps = 24;
  /// Insert one MPI_Test this fraction into the work phase (the §4.3
  /// "MPI library call effect" variant). Negative = no call.
  double testCallAtFraction = -1.0;

  mpi::Tag dataTag = 1;

  bool operator==(const PwwParams&) const = default;
};

struct PwwPoint {
  using Param = PwwParams;
  std::uint64_t workInterval = 0;
  Bytes msgBytes = 0;
  /// time(work, no messaging) / time(post + work + wait).
  double availability = 0.0;
  /// One-direction goodput: batch*msgBytes / avg cycle time.
  double bandwidthBps = 0.0;
  // Per-cycle phase durations (averaged over reps, warm-up excluded):
  Time avgPost = 0.0;
  Time avgWork = 0.0;  ///< "work with message handling"
  Time avgWait = 0.0;
  Time dryWork = 0.0;  ///< same work loop with no communication
  /// Per-post and per-message views used by Figs 10-13.
  Time avgPostPerOp = 0.0;   ///< avgPost / (2*batch): one send or recv post
  Time avgWaitPerMsg = 0.0;  ///< avgWait / batch
  int reps = 0;
  /// Fault-injection/reliability counters for the whole cluster run.
  net::FaultCounters fault;
  /// Per-message MPI send/recv completion-latency tails (see
  /// PollingPoint) and executor load imbalance.
  TailSummary sendTail;
  TailSummary recvTail;
  double shardImbalance = 1.0;

  bool operator==(const PwwPoint&) const = default;
};

/// Log-spaced sweep values (paper x-axes are log poll/work interval).
std::vector<std::uint64_t> logSweep(std::uint64_t lo, std::uint64_t hi,
                                    int pointsPerDecade);

}  // namespace comb::bench
