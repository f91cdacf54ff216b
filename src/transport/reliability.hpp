// Timeout/retransmit protocol parameters, shared by the three NIC models
// (GM, Portals, RDMA; the progress-thread stack runs the GM NIC) and
// consumed by their common engine, nic::ReliableLink.
//
// On a lossy fabric (FaultSpec with dropProb or corruptProb > 0) every
// non-Ack fragment must be acknowledged by the receiving NIC. The sender
// keeps per-message state: which fragments are still unacked, how many
// retransmission rounds have been spent, and a timer that fires after
// `ackTimeout * backoff^retries`. What happens on a timeout differs per
// stack — that is the point of the extension, and the engine's only
// per-stack hook:
//
//  * GM (OS-bypass, library-driven progress): the NIC can only queue a
//    Timeout event; the *library* notices it during some later MPI call,
//    pays host CPU to re-stage the missing fragments (eager messages are
//    re-copied into NIC send buffers) and restarts the DMA. Retransmit
//    latency is bounded below by the application's polling interval.
//  * Portals (NIC/kernel-resident progress) and RDMA (hardware offload):
//    the NIC retains each message's metadata and replays the missing
//    fragments autonomously — no host CPU, no waiting for a library call.
//
// On a lossless fabric (the default) none of this machinery engages and
// event timings are bit-identical to builds without it.
#pragma once

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/fault.hpp"

namespace comb::transport {

struct ReliabilityConfig {
  /// Base ack timeout, measured from the instant the message's last
  /// fragment entered the wire. Generous by design: a spurious timeout
  /// costs a wasted retransmission, a tight one costs correctness of the
  /// availability numbers.
  Time ackTimeout = 2e-3;
  /// Timeout multiplier per retransmission round (exponential backoff).
  double backoff = 2.0;
  /// Retransmission rounds per message before the stack gives the peer
  /// up and the run is aborted (RetryBudgetExhausted).
  int maxRetries = 10;
  /// Wire payload of one Ack packet.
  Bytes ackBytes = 16;
};

/// A message spent its retry budget: the stack gave its peer up, so the
/// run cannot finish. SimCluster::run stamps `fault` with the cluster's
/// counters at that moment, so a sweep can report the run as collapsed
/// instead of losing it.
class RetryBudgetExhausted : public Error {
 public:
  using Error::Error;
  net::FaultCounters fault;
};

}  // namespace comb::transport
