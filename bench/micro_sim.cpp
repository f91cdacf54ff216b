// Micro-benchmarks (google-benchmark): simulator core throughput.
// These guard the substrate's performance — figure sweeps execute
// millions of events, so event-queue and coroutine costs matter.
#include <benchmark/benchmark.h>

#include <memory>

#include "backend/machine.hpp"
#include "comb/congestion.hpp"
#include "comb/runner.hpp"
#include "common/units.hpp"
#include "host/cpu.hpp"
#include "net/fabric.hpp"
#include "sim/channel.hpp"
#include "sim/executor.hpp"
#include "sim/shard_context.hpp"
#include "sim/task.hpp"
#include "sim/tracelog.hpp"
#include "transport/payload_pool.hpp"
#include "transport/wire.hpp"

namespace {

using namespace comb;
using namespace comb::units;

void BM_EventScheduleAndRun(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ShardContext sim;
    for (int i = 0; i < batch; ++i)
      sim.schedule(static_cast<Time>(i % 97) * 1_us, [] {});
    sim.run();
    benchmark::DoNotOptimize(sim.eventsExecuted());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CancelledEvents(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ShardContext sim;
    for (int i = 0; i < batch; ++i) {
      auto h = sim.schedule(1_us, [] {});
      if (i % 2 == 0) h.cancel();
    }
    sim.run();
    benchmark::DoNotOptimize(sim.eventsExecuted());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CancelledEvents)->Arg(10000);

// Steady-state scheduling: one long-lived simulator, so the event pool
// (post-optimization) reaches its high-water mark once and then recycles
// slots with zero heap traffic. Contrast with BM_EventScheduleAndRun,
// which pays simulator construction per iteration.
void BM_EventPoolChurn(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  sim::ShardContext sim;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i)
      sim.schedule(static_cast<Time>(i % 13) * 1_us, [] {});
    sim.run();
  }
  benchmark::DoNotOptimize(sim.eventsExecuted());
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventPoolChurn)->Arg(1000)->Arg(10000);

// The preemptible-CPU idiom: a completion timer is cancelled and re-armed
// on every interrupt. Exercises cancel() + slot recycling under churn.
void BM_CancelStorm(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  sim::ShardContext sim;
  for (auto _ : state) {
    sim::EventHandle timer;
    for (int i = 0; i < batch; ++i) {
      timer.cancel();
      timer = sim.schedule(1_ms, [] {});
      sim.schedule(static_cast<Time>(i % 7) * 1_us, [] {});
    }
    timer.cancel();
    sim.run();
  }
  benchmark::DoNotOptimize(sim.eventsExecuted());
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_CancelStorm)->Arg(10000);

// Per-packet cost through the full fabric path: payload allocation,
// uplink serialization, switch routing, downlink delivery, payload
// downcast at the receiver — the inner loop of every figure sweep.
void BM_PacketDelivery(benchmark::State& state) {
  const auto batch = static_cast<int>(state.range(0));
  sim::ShardContext sim;
  net::Fabric fabric(sim, net::FabricConfig{});
  std::uint64_t delivered = 0;
  const net::NodeId rx = fabric.addNode([&](net::Packet p) {
    const auto* wp = net::payloadAs<transport::WirePayload>(p);
    if (wp != nullptr) ++delivered;
  });
  const net::NodeId tx = fabric.addNode([](net::Packet) {});
  transport::WirePayloadPool pool;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      auto wp = pool.acquire();
      wp->msgId = static_cast<std::uint64_t>(i);
      fabric.inject(tx, rx, 512, std::move(wp));
    }
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_PacketDelivery)->Arg(1000);

void BM_CoroutineDelayLoop(benchmark::State& state) {
  const auto steps = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ShardContext sim;
    auto proc = [](sim::ShardContext& s, int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) co_await s.delay(1e-6);
    };
    sim.spawn(proc(sim, steps), "loop");
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_CoroutineDelayLoop)->Arg(1000)->Arg(10000);

void BM_ChannelPingPong(benchmark::State& state) {
  const auto rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ShardContext sim;
    sim::Channel<int> a(sim), b(sim);
    auto ping = [](sim::ShardContext&, sim::Channel<int>& tx,
                   sim::Channel<int>& rx, int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        tx.send(i);
        (void)co_await rx.recv();
      }
    };
    auto pong = [](sim::ShardContext&, sim::Channel<int>& rx,
                   sim::Channel<int>& tx, int n) -> sim::Task<void> {
      for (int i = 0; i < n; ++i) {
        const int v = co_await rx.recv();
        tx.send(v);
      }
    };
    sim.spawn(ping(sim, a, b, rounds), "ping");
    sim.spawn(pong(sim, a, b, rounds), "pong");
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_ChannelPingPong)->Arg(1000);

void BM_CpuComputeUnderInterrupts(benchmark::State& state) {
  const auto interrupts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ShardContext sim;
    host::Cpu cpu(sim, "n0");
    auto proc = [](host::Cpu& c) -> sim::Task<void> {
      co_await c.compute(1.0);
    };
    sim.spawn(proc(cpu), "p");
    for (int i = 0; i < interrupts; ++i)
      sim.schedule(static_cast<Time>(i) * 1e-4, [&cpu] {
        cpu.raiseInterrupt(10e-6);
      });
    sim.run();
    benchmark::DoNotOptimize(cpu.isrTime());
  }
  state.SetItemsProcessed(state.iterations() * interrupts);
}
BENCHMARK(BM_CpuComputeUnderInterrupts)->Arg(1000);

// The tracing contract: a detached TraceLog costs one predicted-false
// branch per emit site, so this must match BM_CpuComputeUnderInterrupts;
// the attached variant prices the actual ring writes for comparison.
void BM_InterruptPathTracing(benchmark::State& state) {
  const auto interrupts = static_cast<int>(state.range(0));
  const bool attached = state.range(1) != 0;
  sim::TraceLog log(1 << 16);
  for (auto _ : state) {
    sim::ShardContext sim;
    if (attached) sim.attachTraceLog(&log);
    host::Cpu cpu(sim, "n0");
    auto proc = [](host::Cpu& c) -> sim::Task<void> {
      co_await c.compute(1.0);
    };
    sim.spawn(proc(cpu), "p");
    for (int i = 0; i < interrupts; ++i)
      sim.schedule(static_cast<Time>(i) * 1e-4, [&cpu] {
        cpu.raiseInterrupt(10e-6);
      });
    sim.run();
    benchmark::DoNotOptimize(cpu.isrTime());
    log.clear();
  }
  state.SetLabel(attached ? "attached" : "detached");
  state.SetItemsProcessed(state.iterations() * interrupts);
}
BENCHMARK(BM_InterruptPathTracing)->Args({1000, 0})->Args({1000, 1});

// Window-loop overhead of the sharded core: per-shard event streams with
// NO cross-shard traffic, and events spaced exactly one lookahead apart so
// every event opens a fresh window — the worst case for window churn.
// Compare against BM_EventScheduleAndRun for the sharding tax.
void BM_ShardedWindowAdvance(benchmark::State& state) {
  const int shards = static_cast<int>(state.range(0));
  const int perShard = static_cast<int>(state.range(1));
  for (auto _ : state) {
    sim::ExecutorOptions o;
    o.shards = shards;
    o.lookahead = 1_us;
    o.workers = 1;
    sim::Executor exec(o);
    for (int s = 0; s < shards; ++s)
      for (int i = 0; i < perShard; ++i)
        exec.shard(s).schedule(static_cast<Time>(i) * 1_us, [] {});
    exec.run();
    benchmark::DoNotOptimize(exec.eventsExecuted());
  }
  state.SetItemsProcessed(state.iterations() * shards * perShard);
}
BENCHMARK(BM_ShardedWindowAdvance)->Args({4, 2500});

// Cross-shard delivery cost: every message rides the outbox -> inbox
// fold-in machinery (packed-key sort included), one message per window.
void BM_CrossShardPost(benchmark::State& state) {
  const auto msgs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::ExecutorOptions o;
    o.shards = 2;
    o.lookahead = 1_us;
    o.workers = 1;
    sim::Executor exec(o);
    std::uint64_t delivered = 0;
    for (int i = 0; i < msgs; ++i)
      exec.shard(0).schedule(static_cast<Time>(i) * 1_us,
                             [&exec, &delivered] {
                               auto& src = exec.shard(0);
                               src.postRemote(exec.shard(1), src.now() + 1_us,
                                              [&delivered] { ++delivered; });
                             });
    exec.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * msgs);
}
BENCHMARK(BM_CrossShardPost)->Arg(10000);

// End-to-end sharded-core cost at scale: an incast congestion point on
// the oversubscribed fat-tree, serial core (sim-jobs 1) vs sharded.
// items/s counts delivered messages. On a single-core host the worker
// budget caps the pool at one thread, so the sharded rows price the
// window/fold-in overhead; real speedups need spare cores.
void BM_CongestionIncastSharded(benchmark::State& state) {
  const auto nodes = static_cast<std::uint64_t>(state.range(0));
  auto machine = backend::gmMachine();
  machine.fabric.sw.ports = 24;
  machine.fabric.topo.kind = net::TopologyKind::FatTree;
  machine.fabric.topo.nodesPerSwitch = 8;
  machine.fabric.topo.spines = 4;
  machine.fabric.sw.queue.depthPackets = 32;
  machine.fabric.sw.queue.backpressure = net::Backpressure::Credit;
  bench::CongestionParams p;
  p.pattern = bench::CongestionPattern::Incast;
  p.nodes = nodes;
  p.msgBytes = 16_KB;
  p.messagesPerSender = 1;
  p.window = 8;
  bench::RunOptions opts;
  opts.simJobs = static_cast<int>(state.range(1));
  for (auto _ : state) {
    const auto point = bench::runPoint(machine, p, opts);
    benchmark::DoNotOptimize(point.messagesDelivered);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nodes - 1));
}
BENCHMARK(BM_CongestionIncastSharded)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 4})
    ->Args({1024, 8})
    ->Args({4096, 1})
    ->Args({4096, 4})
    ->Args({4096, 8})
    ->Unit(benchmark::kMillisecond);

// Raw emission throughput with the ring attached: the per-record cost a
// traced run pays on top of the simulation itself.
void BM_TraceEmit(benchmark::State& state) {
  sim::TraceLog log(1 << 16);
  double t = 0;
  for (auto _ : state) {
    log.emit(t, sim::TraceCategory::NicEvent, 0, "tx-frag", 4160);
    t += 1e-6;
  }
  benchmark::DoNotOptimize(log.size());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceEmit);

}  // namespace

BENCHMARK_MAIN();
