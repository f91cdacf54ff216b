#include "net/link.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "net/switch.hpp"

namespace comb::net {

Link::Link(sim::ShardContext& sim, LinkConfig cfg, std::string name)
    : sim_(&sim),
      cfg_(cfg),
      name_(std::move(name)),
      dropLabel_(name_ + ":drop"),
      corruptLabel_(name_ + ":corrupt"),
      // Per-link stream: mixing the spec seed with the link name keeps
      // streams independent across links yet reproducible for a fixed
      // seed, regardless of construction order or host threading.
      faultRng_(cfg.fault.seed ^ fnv1a64(name_)) {
  COMB_REQUIRE(cfg.rate > 0.0, "link rate must be positive: " + name_);
  COMB_REQUIRE(cfg.latency >= 0.0, "link latency must be >= 0: " + name_);
  validateFaultSpec(cfg.fault);
  registerCounters();
}

void Link::registerCounters() {
  auto& m = sim_->metrics();
  packetsCounter_ = &m.counter("link." + name_ + ".packets");
  bytesCounter_ = &m.counter("link." + name_ + ".bytes");
  dropsCounter_ = &m.counter("link." + name_ + ".drops");
  corruptsCounter_ = &m.counter("link." + name_ + ".corrupts");
}

void Link::rehome(sim::ShardContext& ctx) {
  if (&ctx == sim_) return;
  COMB_ASSERT(packetsCarried_ == 0 && packetsDropped_ == 0,
              "link rehomed after carrying traffic: " + name_);
  sim_ = &ctx;
  // The construction-shard registry keeps the (zero-valued) instruments
  // registered above; every post-rehome increment lands here instead.
  registerCounters();
}

bool Link::idleNow() const { return busyUntil_ <= sim_->now(); }

Time Link::send(Packet p, Time earliest) {
  COMB_ASSERT(static_cast<bool>(sink_), "link has no sink: " + name_);
  COMB_ASSERT(earliest >= sim_->now(), "link send before now: " + name_);
  const Time start = std::max(earliest, busyUntil_);
  const Time occupy = transferTime(p.wireBytes, cfg_.rate);
  busyUntil_ = start + occupy;
  busyTime_ += occupy;
  bytesCarried_ += p.wireBytes;
  ++packetsCarried_;
  packetsCounter_->add();
  bytesCounter_->add(p.wireBytes);
  Time arrival = busyUntil_ + cfg_.latency;
  if (cfg_.fault.active()) {
    const FaultSpec& f = cfg_.fault;
    // A dropped packet still occupied the wire (counted above) — it is
    // lost, not unsent.
    bool drop = false;
    if (burstRemaining_ > 0) {
      drop = true;
      --burstRemaining_;
    } else if (f.dropProb > 0.0 && faultRng_.uniform() < f.dropProb) {
      drop = true;
      // validateFaultSpec guarantees burstLen >= 1, but clamp anyway: a
      // zero-length burst must not underflow into a near-infinite one.
      burstRemaining_ = std::max(f.burstLen - 1, 0);
    }
    if (drop) {
      ++packetsDropped_;
      dropsCounter_->add();
      if (sim_->tracing())
        sim_->emitTraceAt(earliest, sim::TraceCategory::Fault, p.dst,
                          dropLabel_, static_cast<double>(p.wireBytes),
                          static_cast<double>(p.seq));
      return arrival;
    }
    if (f.corruptProb > 0.0 && faultRng_.uniform() < f.corruptProb) {
      p.corrupted = true;
      ++packetsCorrupted_;
      corruptsCounter_->add();
      if (sim_->tracing())
        sim_->emitTraceAt(earliest, sim::TraceCategory::Fault, p.dst,
                          corruptLabel_, static_cast<double>(p.wireBytes),
                          static_cast<double>(p.seq));
    }
    if (f.jitter > 0.0) {
      // Jitter delays delivery but never reorders: a link is a FIFO pipe.
      // It only ever adds to the latency, so the configured latency stays
      // a valid lower bound for the executor's lookahead.
      arrival =
          std::max(arrival + faultRng_.uniform(0.0, f.jitter), lastArrival_);
    }
    lastArrival_ = arrival;
  }
  // Wire transit [serialize start, arrival) — known synchronously, so a
  // Complete span rather than Begin/End (transits on one link overlap:
  // packet N+1 serializes while N propagates).
  if (sim_->tracing())
    sim_->emitTraceCompleteAt(start, arrival - start, sim::TraceCategory::Wire,
                              p.dst, name_, static_cast<double>(p.wireBytes),
                              static_cast<double>(p.seq));
  // Shard hand-off point. When this link feeds a switch whose egress
  // port for p.dst lives on another shard, the arrival event must fire
  // there — and it may, safely: arrival >= now + latency >= window end,
  // the conservative-lookahead invariant. Serial runs (and same-shard
  // hops) take the identical scheduleAt the serial core always used.
  if (nextHop_ != nullptr && sim_->sharded()) {
    if (sim::ShardContext* target = nextHop_->egressCtx(p.dst);
        target != nullptr && target != sim_) {
      sim_->postRemote(*target, arrival,
                       [this, p = std::move(p)]() mutable {
                         sink_(std::move(p));
                       });
      return arrival;
    }
  }
  sim_->scheduleAt(arrival,
                   [this, p = std::move(p)]() mutable { sink_(std::move(p)); });
  return arrival;
}

}  // namespace comb::net
