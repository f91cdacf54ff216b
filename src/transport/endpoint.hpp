// Abstract transport endpoint: what MiniMPI needs from a message layer.
//
// Four stacks implement it, and they differ in *where* protocol work
// runs, which is what the paper measures:
//   * GmEndpoint             — OS-bypass user-level networking; matching
//                              and rendezvous control live in the
//                              *library*, so progress happens only inside
//                              MPI calls (no application offload).
//   * ProgressThreadEndpoint — the GM library protocol, driven by a
//                              progress engine beside the application.
//   * PortalsEndpoint        — kernel-based stack; matching and progress
//                              run in interrupt context independent of
//                              the application (application offload), at
//                              the price of host CPU.
//   * RdmaEndpoint           — matching and rendezvous in NIC hardware.
//
// They share one receive path: the NIC-level reassembler
// (nic/reassembler.hpp), the per-peer send-order gate (send_order.hpp;
// each stack owns one, holding what it needs back) and the matcher
// below, which holds each unexpected message's Arrival inline. A stack
// only decides where each step runs and what it costs.
//
// All posting/progress entry points are coroutines: each implementation
// charges its own CPU costs on the calling process's host CPU, which is
// exactly how the real systems differ.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "common/units.hpp"
#include "mpi/match.hpp"
#include "mpi/types.hpp"
#include "net/packet.hpp"
#include "sim/activity.hpp"
#include "sim/task.hpp"
#include "transport/data.hpp"
#include "transport/wire.hpp"

namespace comb::nic {
class ReliableLink;
}

namespace comb::transport {

/// A send posted by the MPI layer. `handle` is MPI-layer-chosen and echoed
/// back in the completion callback.
struct TxReq {
  std::uint64_t handle = 0;
  net::NodeId dstNode = -1;
  mpi::Envelope env;
  Bytes bytes = 0;
  DataBuffer data;  ///< optional real payload
};

/// A receive posted by the MPI layer.
struct RxReq {
  std::uint64_t handle = 0;
  mpi::Pattern pattern;
  Bytes maxBytes = 0;
};

class Endpoint {
 public:
  using TxDoneFn = std::function<void(std::uint64_t handle)>;
  using RxDoneFn = std::function<void(std::uint64_t handle,
                                      const mpi::Status&, const DataBuffer&)>;

  virtual ~Endpoint() = default;

  /// Wire the MPI layer's completion callbacks. Must be called once before
  /// any post. Callbacks may run in library-call context (GM) or interrupt
  /// context (Portals).
  void setCallbacks(TxDoneFn txDone, RxDoneFn rxDone) {
    txDone_ = std::move(txDone);
    rxDone_ = std::move(rxDone);
  }

  virtual sim::Task<void> postSend(TxReq req) = 0;
  virtual sim::Task<void> postRecv(RxReq req) = 0;

  /// One library progress call: charges the call's CPU cost and performs
  /// whatever protocol work this transport does in library context.
  virtual sim::Task<void> progress() = 0;

  /// Cancel a posted receive that has not matched yet. Returns true on
  /// success; false means the receive already matched (completion callback
  /// fired or imminent).
  virtual sim::Task<bool> cancelRecv(std::uint64_t handle) = 0;

  /// Non-consuming check of the unexpected queue (call progress() first
  /// for fresh results). Used by MPI_Iprobe.
  std::optional<mpi::Status> peekUnexpected(const mpi::Pattern& pattern) const {
    if (const auto* u = match_.peekUnexpected(pattern))
      return mpi::Status{u->env.srcRank, u->env.tag, u->bytes};
    return std::nullopt;
  }

  /// True when messages progress without library calls (the paper's
  /// "application offload").
  virtual bool applicationOffload() const = 0;

  /// Base CPU cost of one MPI library call into this transport.
  virtual Time libCallCost() const = 0;

  virtual net::NodeId nodeId() const = 0;

  /// Packet entry point: hands a fabric packet to this endpoint's NIC.
  virtual void deliver(net::Packet p) = 0;

  /// The NIC's ack/retransmit engine (read-only: counters, state).
  virtual const nic::ReliableLink& link() const = 0;

  /// Versioned "protocol activity happened" signal (NIC event queued,
  /// completion flagged). MPI blocking waits re-check their predicate
  /// after each version change instead of burning simulator events on a
  /// spin loop; the paper's busy-wait has the same *timing*, we just skip
  /// simulating the idle spins.
  sim::ActivitySignal& activity() { return *activity_; }

 protected:
  void initActivity(sim::ShardContext& sim) {
    activity_ = std::make_unique<sim::ActivitySignal>(sim);
  }
  void signalActivity() { activity_->signal(); }
  /// Complete receive `handle` with the whole message `msg`.
  void completeRecv(std::uint64_t handle, const Arrival& msg) {
    rxDone_(handle, mpi::Status{msg.env.srcRank, msg.env.tag, msg.msgBytes},
            msg.data);
    signalActivity();
  }

  TxDoneFn txDone_;
  RxDoneFn rxDone_;
  /// Posted receives, and unexpected messages held as their Arrival.
  mpi::MatchEngine<Arrival> match_;

 private:
  std::unique_ptr<sim::ActivitySignal> activity_;
};

}  // namespace comb::transport
