#include "transport/progress_thread.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::transport {

ProgressThreadEndpoint::ProgressThreadEndpoint(sim::ShardContext& sim,
                                               host::Cpu& appCpu,
                                               host::Cpu& engineCpu,
                                               net::Fabric& fabric,
                                               net::NodeId node,
                                               ProgressThreadConfig cfg)
    : GmEndpoint(sim, appCpu, fabric, node, cfg.proto),
      ptCfg_(cfg),
      engineCpu_(engineCpu),
      wakeupCounter_(sim.metrics().counter(
          strFormat("pt.n%d.engine_wakeups", node))) {
  COMB_REQUIRE(cfg.pollPeriod >= 0.0 && cfg.wakeupLatency >= 0.0 &&
                   cfg.pollCost >= 0.0 && cfg.handoffPenalty >= 0.0,
               "progress-thread costs must be non-negative");
  COMB_REQUIRE(!cfg.dedicatedCore || &appCpu != &engineCpu,
               "dedicated progress placement needs its own engine CPU");
  COMB_REQUIRE(cfg.dedicatedCore || &appCpu == &engineCpu,
               "oversubscribed progress placement shares the app CPU");
  // Replace the base hook: a queued NIC event versions the activity
  // signal AND wakes the engine.
  nic().setEventHook([this] {
    signalActivity();
    scheduleDrain();
  });
}

sim::Task<void> ProgressThreadEndpoint::progress() {
  // The engine owns the event queue; a library call only inspects
  // completion flags the engine already wrote.
  sim::TraceScope span(sim_, sim::TraceCategory::Protocol, node_, "progress");
  co_await cpu_.compute(cfg_.libCallCost);
}

sim::Task<void> ProgressThreadEndpoint::chargeProgress(Time t) {
  if (&engineCpu_ == &cpu_) {
    // Oversubscribed: the engine timeshares the application's core, so
    // its cycles preempt user compute (charged through the interrupt
    // path — user work stretches by exactly the stolen time).
    co_await cpu_.interruptWork(t);
  } else {
    co_await engineCpu_.compute(t);
  }
}

void ProgressThreadEndpoint::scheduleDrain() {
  if (drainPending_) return;
  drainPending_ = true;
  // An idle engine needs waking (wakeupLatency); a recently-run engine
  // re-polls no sooner than its poll cadence allows.
  const Time when = std::max(sim_.now() + ptCfg_.wakeupLatency,
                             lastWakeup_ + ptCfg_.pollPeriod);
  sim_.scheduleAt(when,
                  [this] { sim_.spawn(drainSession(), "pt-engine"); });
}

sim::Task<void> ProgressThreadEndpoint::drainSession() {
  lastWakeup_ = sim_.now();
  ++engineWakeups_;
  wakeupCounter_.add();
  // Its own track: the engine runs while the app is in a library call.
  sim::TraceScope span(sim_, sim::TraceCategory::Engine, node_, "pt-engine");
  co_await chargeProgress(ptCfg_.pollCost);
  while (auto ev = nic_.pop()) {
    // Every event crosses the engine<->app cacheline boundary once.
    co_await chargeProgress(ptCfg_.handoffPenalty);
    co_await handleEvent(std::move(*ev));
  }
  // The pop loop only exits with the queue momentarily empty and no
  // suspension before this store, so clearing the flag cannot drop an
  // event: any later arrival re-enters through the NIC hook.
  drainPending_ = false;
}

}  // namespace comb::transport
