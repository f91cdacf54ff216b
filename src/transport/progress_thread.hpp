// Progress-thread transport model (GM-like library stack + a dedicated
// software progress engine).
//
// "Asynchronous MPI for the Masses" and "MPI Progress For All" describe
// the pattern this stack models: the library protocol is unchanged from
// an OS-bypass stack (here: the GM eager/rendezvous state machine,
// inherited wholesale from GmEndpoint), but a helper thread polls the
// NIC event queue on its own schedule, so control messages — CTS
// answers, rendezvous DMA kicks, retransmit staging — advance while the
// application computes. That is application offload in software.
//
// The costs the papers identify are all first-class knobs:
//  * placement — a *dedicated* core runs the engine for free (from the
//    application's point of view), while an *oversubscribed* engine
//    timeshares the application's core and every engine cycle preempts
//    user compute (modelled through the host CPU's interrupt path, the
//    same mechanism OS noise uses).
//  * wakeupLatency — an idle engine must be woken (futex/condvar +
//    scheduler latency) before it sees a fresh NIC event.
//  * pollPeriod — minimum spacing between engine wakeups: a busy engine
//    re-polls at this cadence rather than continuously.
//  * pollCost — CPU burned per wakeup inspecting the event queue.
//  * handoffPenalty — cacheline-bounce cost per event handled: protocol
//    state written by the engine core is read by the application core
//    (and vice versa), so every completion crosses a cache boundary.
//
// Consequence (the expected figure shape): rendezvous transfers overlap
// with the work phase like Portals, without per-fragment interrupts —
// but a dedicated core costs a core, and an oversubscribed engine gives
// back part of the availability it recovers.
#pragma once

#include "transport/gm.hpp"

namespace comb::transport {

struct ProgressThreadConfig {
  /// The underlying library protocol (eager/rendezvous thresholds, copy
  /// rates, control costs, reliability) — identical machine to GM's.
  GmConfig proto;
  /// true: the engine owns its own core; false: it timeshares the
  /// application core and engine work preempts user compute.
  bool dedicatedCore = true;
  /// Minimum spacing between engine wakeups (poll cadence when busy).
  Time pollPeriod = 5e-6;
  /// Latency from a NIC event landing to an idle engine running.
  Time wakeupLatency = 2e-6;
  /// Fixed CPU cost per engine wakeup (event-queue inspection).
  Time pollCost = 0.3e-6;
  /// Cacheline-bounce cost per event handled (engine<->app shared state).
  Time handoffPenalty = 0.2e-6;
};

class ProgressThreadEndpoint final : public GmEndpoint {
 public:
  /// `appCpu` runs the application's library calls (posts, waits);
  /// `engineCpu` runs the progress engine. With an oversubscribed
  /// placement both refer to the same CPU and engine work is charged
  /// through the interrupt path (it preempts user compute, exactly like
  /// a timeslice steal).
  ProgressThreadEndpoint(sim::ShardContext& sim, host::Cpu& appCpu,
                         host::Cpu& engineCpu, net::Fabric& fabric,
                         net::NodeId node, ProgressThreadConfig cfg);

  /// A library call only inspects completion flags — the engine owns the
  /// event queue.
  sim::Task<void> progress() override;
  bool applicationOffload() const override { return true; }

  /// Engine wakeups that actually ran (drain sessions).
  std::uint64_t engineWakeups() const { return engineWakeups_; }

 protected:
  /// Engine-context CPU charge: dedicated core computes on its own CPU;
  /// an oversubscribed engine preempts the application's compute.
  sim::Task<void> chargeProgress(Time t) override;

 private:
  /// Arrange for a drain session at the NIC-event wakeup time (bounded
  /// below by the poll cadence). Idempotent while one is pending.
  void scheduleDrain();
  /// One engine wakeup: pay the poll cost, then run the inherited GM
  /// protocol over every pending event (handoff penalty charged per
  /// event via chargeProgress).
  sim::Task<void> drainSession();

  ProgressThreadConfig ptCfg_;
  host::Cpu& engineCpu_;
  bool drainPending_ = false;
  Time lastWakeup_ = -1e30;  ///< far past: the first wakeup is uncapped
  std::uint64_t engineWakeups_ = 0;
  metrics::Counter& wakeupCounter_;  ///< "pt.n<id>.engine_wakeups"
};

}  // namespace comb::transport
