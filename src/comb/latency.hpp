// Classic ping-pong latency/bandwidth microbenchmark.
//
// Not part of the paper's two COMB methods, but the baseline they are
// contrasted against (§1: "most MPI microbenchmarks can measure latency, bandwidth,
// and host CPU overhead, but they fail to accurately characterize the
// actual performance that applications can expect"). Having it in the
// suite lets users see exactly what the polling/PWW methods add: the
// ping-pong numbers look similar across stacks whose overlap behaviour is
// completely different.
#pragma once

#include <vector>

#include "comb/params.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "mpi/request.hpp"
#include "sim/task.hpp"

namespace comb::bench {

struct LatencyParams {
  Bytes msgBytes = 0;
  int reps = 50;  ///< measured round trips (plus one warm-up)
  mpi::Tag tag = 1;
};

struct LatencyPoint {
  using Param = LatencyParams;
  Bytes msgBytes = 0;
  Time halfRoundTripAvg = 0.0;  ///< the usual "latency" number
  Time halfRoundTripMin = 0.0;
  /// msgBytes / halfRoundTripAvg: the ping-pong "bandwidth".
  double bandwidthBps = 0.0;
  int reps = 0;
  /// Fault-injection/reliability counters for the whole cluster run.
  net::FaultCounters fault;
  /// Per-message MPI send/recv completion-latency tails (see
  /// PollingPoint) and executor load imbalance.
  TailSummary sendTail;
  TailSummary recvTail;
  double shardImbalance = 1.0;

  bool operator==(const LatencyPoint&) const = default;
};

/// Initiator role (rank 0 of `world`, any 2-rank communicator).
template <typename Env, typename CommType>
sim::Task<LatencyPoint> latencyInitiatorOn(Env& env, LatencyParams p,
                                           const CommType& world) {
  COMB_REQUIRE(world.rank() == 0, "initiator must be rank 0");
  COMB_REQUIRE(p.reps >= 1, "need at least one rep");
  auto& mpi = env.mpi();
  co_await mpi.barrier(world);

  RunningStats halves;
  for (int r = 0; r <= p.reps; ++r) {
    const auto t0 = env.wtime();
    co_await mpi.send(world, 1, p.tag, p.msgBytes);
    co_await mpi.recv(world, 1, p.tag, p.msgBytes);
    const auto rt = env.wtime() - t0;
    if (r > 0) halves.add(rt / 2.0);  // first rep is warm-up
  }
  co_await mpi.barrier(world);

  LatencyPoint point;
  point.msgBytes = p.msgBytes;
  point.reps = p.reps;
  point.halfRoundTripAvg = halves.mean();
  point.halfRoundTripMin = halves.min();
  point.bandwidthBps = point.halfRoundTripAvg > 0
                           ? static_cast<double>(p.msgBytes) /
                                 point.halfRoundTripAvg
                           : 0.0;
  co_return point;
}

/// Echo role (rank 1).
template <typename Env, typename CommType>
sim::Task<void> latencyEchoOn(Env& env, LatencyParams p,
                              const CommType& world) {
  COMB_REQUIRE(world.rank() == 1, "echo must be rank 1");
  auto& mpi = env.mpi();
  co_await mpi.barrier(world);
  for (int r = 0; r <= p.reps; ++r) {
    co_await mpi.recv(world, 0, p.tag, p.msgBytes);
    co_await mpi.send(world, 0, p.tag, p.msgBytes);
  }
  co_await mpi.barrier(world);
}

/// Convenience overloads on the backend's world communicator.
template <typename Env>
sim::Task<LatencyPoint> latencyInitiator(Env& env, LatencyParams p) {
  co_return co_await latencyInitiatorOn(env, std::move(p),
                                        env.mpi().world());
}

template <typename Env>
sim::Task<void> latencyEcho(Env& env, LatencyParams p) {
  co_await latencyEchoOn(env, std::move(p), env.mpi().world());
}

}  // namespace comb::bench
