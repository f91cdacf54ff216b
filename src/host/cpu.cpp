#include "host/cpu.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::host {

Cpu::Cpu(sim::ShardContext& sim, std::string name, int node,
         const NoiseSpec& noise)
    : sim_(sim),
      name_(std::move(name)),
      node_(node),
      interruptCounter_(sim.metrics().counter(
          strFormat("host.%s.interrupts", name_.c_str()))),
      isrServiceLatency_(sim.metrics().latency(
          strFormat("host.%s.isr_service", name_.c_str()))),
      computeStretchLatency_(sim.metrics().latency(
          strFormat("host.%s.compute_stretch", name_.c_str()))) {
  if (noise.active()) {
    // The stream key hashes the CPU name ("cpu<node>.<idx>"), so the
    // schedule is a pure function of (seed, node, cpu) — independent of
    // sharding or construction order.
    noise_ = NoiseModel(noise, noiseStreamKey(name_));
    noiseTraceName_ = name_ + ".noise";
    noisePreemptCounter_ = &sim.metrics().counter(
        strFormat("host.%s.noise_preempts", name_.c_str()));
    noiseWindowLatency_ = &sim.metrics().latency(
        strFormat("host.%s.noise_window", name_.c_str()));
  }
}

sim::Task<void> Cpu::compute(Time seconds) {
  COMB_ASSERT(seconds >= 0.0, "negative compute request");
  Job job(sim_, seconds, sim_.now());
  jobs_.push_back(&job);
  if (jobs_.size() == 1) startFrontJob();
  co_await job.done.wait();
}

void Cpu::startFrontJob() {
  COMB_ASSERT(!jobs_.empty(), "startFrontJob with no jobs");
  userRunning_ = false;
  runFrontJob();
}

void Cpu::runFrontJob() {
  COMB_ASSERT(!jobs_.empty() && !userRunning_, "runFrontJob misuse");
  const Time now = sim_.now();
  if (now < std::max(isrBusyUntil_, noiseBusyUntil_)) {
    scheduleUserResume();
    return;
  }
  if (noise_.enabled()) {
    // A daemon window already covering `now` holds the CPU before the
    // job can start (the daemon was "running" while we were idle).
    const Time busy = noise_.busyEnd(now);
    if (busy > now) {
      chargeNoise(now, busy);
      scheduleUserResume();
      return;
    }
  }
  userRunning_ = true;
  userStartedAt_ = now;
  userCompletion_ =
      sim_.schedule(jobs_.front()->remaining, [this] { onUserJobComplete(); });
  if (noise_.enabled()) {
    const Time next = noise_.nextStart(now);
    if (next < now + jobs_.front()->remaining)
      noisePreempt_ =
          sim_.scheduleAt(next, [this] { onNoisePreempt(); });
  }
}

void Cpu::onNoisePreempt() {
  if (!userRunning_ || jobs_.empty()) return;  // stale (preempted meanwhile)
  const Time now = sim_.now();
  const Time busy = noise_.busyEnd(now);
  if (busy <= now) {
    // Floating-point slot boundaries can arm a preemption an instant
    // before any window actually covers the clock; re-arm for the next
    // window instead of preempting (the job keeps running meanwhile).
    const Time next = noise_.nextStart(now);
    if (next < userStartedAt_ + jobs_.front()->remaining)
      noisePreempt_ = sim_.scheduleAt(next, [this] { onNoisePreempt(); });
    return;
  }
  preemptRunningJob();
  chargeNoise(now, busy);
  scheduleUserResume();
}

void Cpu::chargeNoise(Time from, Time to) {
  noiseBusyUntil_ = to;
  noiseAccum_ += to - from;
  ++noisePreemptions_;
  if (noisePreemptCounter_ != nullptr) noisePreemptCounter_->add();
  if (noiseWindowLatency_ != nullptr) noiseWindowLatency_->record(to - from);
  if (sim_.tracing())
    sim_.emitTraceCompleteAt(from, to - from, sim::TraceCategory::Interrupt,
                             node_, noiseTraceName_, to - from);
}

void Cpu::onUserJobComplete() {
  COMB_ASSERT(!jobs_.empty() && userRunning_,
              "user completion without a running job");
  Job* job = jobs_.front();
  userAccum_ += job->remaining;
  job->remaining = 0.0;
  jobs_.pop_front();
  userRunning_ = false;
  // The full wall-clock window of this compute request is known only now
  // (queuing + ISR preemption stretch it), so record it as a Complete
  // span: t = submission, dur = wall window, a = cycles requested.
  if (sim_.tracing())
    sim_.emitTraceCompleteAt(job->enqueuedAt, sim_.now() - job->enqueuedAt,
                             sim::TraceCategory::Compute, node_, name_,
                             job->requested);
  computeStretchLatency_.record(sim_.now() - job->enqueuedAt -
                                job->requested);
  job->done.fire();
  if (!jobs_.empty()) startFrontJob();
}

void Cpu::preemptRunningJob() {
  COMB_ASSERT(userRunning_ && !jobs_.empty(), "preempt without running job");
  const Time elapsed = sim_.now() - userStartedAt_;
  Job* job = jobs_.front();
  // Guard against floating-point dust taking `remaining` negative.
  const Time progressed = std::min(elapsed, job->remaining);
  job->remaining -= progressed;
  userAccum_ += progressed;
  userCompletion_.cancel();
  noisePreempt_.cancel();
  userRunning_ = false;
}

void Cpu::scheduleUserResume() {
  userResume_.cancel();
  const Time at = std::max(isrBusyUntil_, noiseBusyUntil_);
  userResume_ = sim_.scheduleAt(at, [this] {
    // Superseded by a later resume (another ISR / daemon window landed).
    if (sim_.now() < std::max(isrBusyUntil_, noiseBusyUntil_)) return;
    if (jobs_.empty() || userRunning_) return;
    runFrontJob();
  });
}

void Cpu::raiseInterrupt(Time service, IsrHandler handler) {
  COMB_ASSERT(service >= 0.0, "negative interrupt service time");
  ++interruptsRaised_;
  interruptCounter_.add();
  isrServiceLatency_.record(service);
  // Interrupt coalescing: the first ISR of an idle batch is held for the
  // coalescing window; anything raised while the queue is busy batches
  // behind it at no extra delay. ISRs ignore daemon windows (interrupts
  // outrank daemons).
  const Time hold = isrQueue_.empty() ? noise_.coalesce() : 0.0;
  const Time start = std::max(sim_.now() + hold, isrBusyUntil_);
  const Time end = start + service;
  // ISRs queue FIFO behind the current kernel busy period; the service
  // window [start, end) is known here, so emit it as a Complete span.
  if (sim_.tracing())
    sim_.emitTraceCompleteAt(start, service, sim::TraceCategory::Interrupt,
                             node_, name_, service);
  isrBusyUntil_ = end;
  isrQueue_.push_back(IsrRec{end, service, std::move(handler)});
  sim_.scheduleAt(end, [this] { onIsrComplete(); });
  if (!jobs_.empty()) {
    if (userRunning_) preemptRunningJob();
    scheduleUserResume();
  }
}

void Cpu::onIsrComplete() {
  COMB_ASSERT(!isrQueue_.empty(), "ISR completion with empty queue");
  IsrRec rec = std::move(isrQueue_.front());
  isrQueue_.pop_front();
  isrAccum_ += rec.service;
  if (rec.handler) rec.handler();
}

sim::Task<void> Cpu::interruptWork(Time seconds) {
  sim::Trigger done(sim_);
  raiseInterrupt(seconds, [&done] { done.fire(); });
  co_await done.wait();
}

Time Cpu::userTime() const {
  Time t = userAccum_;
  if (userRunning_) t += sim_.now() - userStartedAt_;
  return t;
}

Time Cpu::isrTime() const {
  Time t = isrAccum_;
  if (!isrQueue_.empty()) {
    const IsrRec& front = isrQueue_.front();
    const Time start = front.end - front.service;
    if (sim_.now() > start)
      t += std::min(sim_.now(), front.end) - start;
  }
  return t;
}

}  // namespace comb::host
