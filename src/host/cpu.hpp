// Preemptible host CPU model.
//
// A Cpu executes two classes of work:
//   * user compute  — submitted by simulated processes via compute();
//     FIFO, one job at a time (one process per node, per the paper).
//   * interrupt service — raised by devices via raiseInterrupt(); always
//     preempts user compute and runs FIFO at the "kernel" level.
//
// This is the mechanism behind every availability number COMB reports:
// when a Portals-style NIC interrupts the host per packet, user compute
// stretches in wall-clock terms exactly by the stolen service time, and
// the benchmark's dry-run/live-run ratio recovers the paper's
// "CPU availability (fraction to user)".
//
// The model tracks cumulative user and ISR time so tests can verify the
// accounting identity:  userTime + isrTime + idleTime == now.
//
// OS noise (host/noise.hpp) plugs in here: daemon windows preempt user
// compute exactly like ISRs (at lower priority — an ISR raised during a
// daemon window still runs on schedule), and the coalescing knob defers
// the first ISR of an idle batch. With a default-constructed NoiseSpec
// the behaviour is bit-identical to the noise-free model.
#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "common/units.hpp"
#include "host/noise.hpp"
#include "sim/inplace_fn.hpp"
#include "sim/shard_context.hpp"
#include "sim/task.hpp"
#include "sim/trigger.hpp"

namespace comb::host {

class Cpu {
 public:
  /// `node` tags this CPU's trace records and metrics (-1 = unattributed).
  /// `noise` (default: disabled) attaches the OS-noise injector; its
  /// schedule is derived from (noise.seed, name), so it reproduces
  /// deterministically per (seed, node, cpu).
  Cpu(sim::ShardContext& sim, std::string name, int node = -1,
      const NoiseSpec& noise = {});
  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  /// Awaitable: consume `seconds` of *user* CPU time. Wall-clock duration
  /// is >= seconds; interrupt service raised while the job runs extends
  /// it. Multiple callers are serviced FIFO.
  sim::Task<void> compute(Time seconds);

  /// Completion callback for raiseInterrupt. Inline-stored (the Portals
  /// receive path raises one per fragment — this must not allocate).
  using IsrHandler = sim::InplaceFn<64>;

  /// Raise an interrupt whose service routine occupies the CPU for
  /// `service` seconds. `handler` (optional) runs when service completes.
  /// ISRs queue FIFO behind any ISR currently in service.
  void raiseInterrupt(Time service, IsrHandler handler = {});

  /// Awaitable: run `seconds` of kernel-level work (scheduled through the
  /// interrupt path — preempts user compute). Used by kernel-resident
  /// protocol processing (the Portals model).
  sim::Task<void> interruptWork(Time seconds);

  // --- accounting -------------------------------------------------------
  /// Cumulative user compute executed (includes the running job's
  /// progress up to now()).
  Time userTime() const;
  /// Cumulative interrupt service executed (includes the in-service
  /// ISR's progress up to now()).
  Time isrTime() const;
  /// Cumulative time noise-daemon windows held the CPU away from pending
  /// user work (0 when the injector is disabled or never collided).
  Time noiseTime() const { return noiseAccum_; }
  std::uint64_t noisePreemptions() const { return noisePreemptions_; }
  const NoiseModel& noise() const { return noise_; }
  std::uint64_t interruptsRaised() const { return interruptsRaised_; }
  const std::string& name() const { return name_; }
  int node() const { return node_; }

  /// True while a user job is queued or running.
  bool busyWithUser() const { return !jobs_.empty(); }

 private:
  struct Job {
    Time remaining;
    Time requested;   ///< original compute request (trace payload)
    Time enqueuedAt;  ///< when compute() was called (trace span start)
    sim::Trigger done;
    Job(sim::ShardContext& s, Time r, Time at)
        : remaining(r), requested(r), enqueuedAt(at), done(s) {}
  };

  struct IsrRec {
    Time end;      ///< absolute completion time
    Time service;  ///< service duration
    IsrHandler handler;
  };

  void startFrontJob();
  /// Start (or re-start) the front job at now: waits out kernel/daemon
  /// busy periods, charges a daemon window covering now, or begins the
  /// run and arms the next daemon preemption inside the job's span.
  void runFrontJob();
  void onUserJobComplete();
  void preemptRunningJob();
  void scheduleUserResume();
  void onIsrComplete();
  void onNoisePreempt();
  /// Account a daemon window [from, to) that held the CPU while user
  /// work was pending.
  void chargeNoise(Time from, Time to);

  sim::ShardContext& sim_;
  std::string name_;
  int node_;
  metrics::Counter& interruptCounter_;  ///< "host.<name>.interrupts"
  /// "host.<name>.isr_service": distribution of ISR service durations.
  LatencyRecorder& isrServiceLatency_;
  /// "host.<name>.compute_stretch": per-compute() wall-clock overrun
  /// (wall window minus requested cycles) — queuing plus preemption,
  /// i.e. exactly what OS noise inflates at the tail.
  LatencyRecorder& computeStretchLatency_;

  // User side. jobs_ front is the active job; entries point into the
  // awaiting coroutines' frames (valid until the job's trigger fires).
  std::deque<Job*> jobs_;
  bool userRunning_ = false;   ///< front job actively consuming cycles now
  Time userStartedAt_ = 0.0;   ///< when the front job (re)started running
  Time userAccum_ = 0.0;       ///< completed user time (excl. running job)
  sim::EventHandle userCompletion_;
  sim::EventHandle userResume_;

  // ISR side: FIFO of scheduled service intervals; back-to-back intervals
  // form one contiguous kernel busy period ending at isrBusyUntil_.
  std::deque<IsrRec> isrQueue_;
  Time isrBusyUntil_ = 0.0;
  Time isrAccum_ = 0.0;  ///< completed ISR service time
  std::uint64_t interruptsRaised_ = 0;

  // Noise side. Preemption events exist only while a user job is
  // running (the schedule itself is lazy arithmetic), so an idle machine
  // quiesces with the injector attached.
  NoiseModel noise_;
  std::string noiseTraceName_;  ///< "<name>.noise" (stable for trace refs)
  Time noiseBusyUntil_ = 0.0;   ///< end of the last charged daemon window
  Time noiseAccum_ = 0.0;
  std::uint64_t noisePreemptions_ = 0;
  metrics::Counter* noisePreemptCounter_ = nullptr;
  LatencyRecorder* noiseWindowLatency_ = nullptr;
  sim::EventHandle noisePreempt_;
};

}  // namespace comb::host
