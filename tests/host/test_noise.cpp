#include "host/noise.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "host/cpu.hpp"

namespace comb::host {
namespace {

using namespace comb::units;
using sim::ShardContext;
using sim::Task;

NoiseSpec demoSpec() {
  NoiseSpec s;
  s.period = 250_us;
  s.duration = 20_us;
  s.daemons = 2;
  s.seed = 42;
  return s;
}

TEST(NoiseSpec, ParseRoundTrip) {
  const NoiseSpec spec = parseNoiseSpec(
      "period_us=250,duration_us=20,jitter=0.5,daemons=3,coalesce_us=4,"
      "seed=99");
  EXPECT_DOUBLE_EQ(spec.period, 250e-6);
  EXPECT_DOUBLE_EQ(spec.duration, 20e-6);
  EXPECT_DOUBLE_EQ(spec.jitter, 0.5);
  EXPECT_EQ(spec.daemons, 3);
  EXPECT_DOUBLE_EQ(spec.coalesce, 4e-6);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_TRUE(spec.enabled());
  const NoiseSpec again = parseNoiseSpec(noiseSpecSummary(spec));
  EXPECT_DOUBLE_EQ(again.period, spec.period);
  EXPECT_DOUBLE_EQ(again.duration, spec.duration);
  EXPECT_DOUBLE_EQ(again.jitter, spec.jitter);
  EXPECT_EQ(again.daemons, spec.daemons);
  EXPECT_DOUBLE_EQ(again.coalesce, spec.coalesce);
  EXPECT_EQ(again.seed, spec.seed);
}

TEST(NoiseSpec, ParseRejectsBadInput) {
  EXPECT_THROW(parseNoiseSpec("bogus_key=1"), ConfigError);
  EXPECT_THROW(parseNoiseSpec("period_us"), ConfigError);
  EXPECT_THROW(parseNoiseSpec("period_us=abc"), ConfigError);
  // Duration without a period, duration beyond the period, bad jitter.
  EXPECT_THROW(parseNoiseSpec("duration_us=5"), ConfigError);
  EXPECT_THROW(parseNoiseSpec("period_us=10,duration_us=20"), ConfigError);
  EXPECT_THROW(parseNoiseSpec("period_us=10,duration_us=1,jitter=2"),
               ConfigError);
  EXPECT_THROW(parseNoiseSpec("period_us=10,duration_us=1,daemons=0"),
               ConfigError);
}

TEST(NoiseSpec, DisabledByDefault) {
  const NoiseSpec spec;
  EXPECT_FALSE(spec.enabled());
  EXPECT_FALSE(spec.active());
  NoiseSpec coalesceOnly;
  coalesceOnly.coalesce = 4_us;
  EXPECT_FALSE(coalesceOnly.enabled());
  EXPECT_TRUE(coalesceOnly.active());
}

TEST(NoiseModel, ScheduleIsDeterministicPerStreamKey) {
  const NoiseSpec spec = demoSpec();
  const NoiseModel a(spec, noiseStreamKey("cpu0.0"));
  const NoiseModel b(spec, noiseStreamKey("cpu0.0"));
  const NoiseModel other(spec, noiseStreamKey("cpu1.0"));
  bool differs = false;
  for (int i = 0; i < 1000; ++i) {
    const Time t = i * 37e-6;
    EXPECT_DOUBLE_EQ(a.busyEnd(t), b.busyEnd(t));
    EXPECT_DOUBLE_EQ(a.nextStart(t), b.nextStart(t));
    if (a.busyEnd(t) != other.busyEnd(t)) differs = true;
  }
  EXPECT_TRUE(differs) << "distinct CPUs must get decorrelated schedules";
}

TEST(NoiseModel, WindowsAreWellFormed) {
  const NoiseModel m(demoSpec(), noiseStreamKey("cpu0.0"));
  for (int i = 0; i < 2000; ++i) {
    const Time t = i * 11e-6;
    const Time end = m.busyEnd(t);
    EXPECT_GE(end, t);
    // Once out of the busy period, we really are out of it.
    EXPECT_DOUBLE_EQ(m.busyEnd(end), end);
    const Time next = m.nextStart(t);
    EXPECT_GT(next, t);
    // The next window start is genuinely a window start.
    EXPECT_GT(m.busyEnd(next), next);
  }
}

TEST(NoiseModel, StrictlyPeriodicBoundariesAreRobust) {
  // jitter=0 puts every window start exactly at fl(k * period), where
  // uint64(start / period) truncates to k-1 for a fraction of k; the
  // busy lookup must still find the covering window (this used to trip
  // the 'noise preemption outside a daemon window' assert).
  NoiseSpec spec = demoSpec();
  spec.jitter = 0.0;
  const NoiseModel m(spec, noiseStreamKey("cpu0.0"));
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    const Time start = static_cast<Time>(k) * spec.period;
    EXPECT_GT(m.busyEnd(start), start) << "slot " << k;
    // nextStart from just inside the window lands on the next slot's
    // start, which must itself be covered.
    const Time next = m.nextStart(start);
    EXPECT_GT(next, start);
    EXPECT_GT(m.busyEnd(next), next) << "slot " << k;
  }
}

TEST(NoiseModel, DisabledModelIsTransparent) {
  const NoiseModel m;
  EXPECT_FALSE(m.enabled());
  EXPECT_DOUBLE_EQ(m.busyEnd(1.0), 1.0);
  EXPECT_TRUE(m.nextStart(1.0) > 1e30);
}

/// Run a fixed compute workload under noise and return the completion time.
Time noisyComputeCompletion(const NoiseSpec& spec, const char* cpuName) {
  ShardContext sim;
  Cpu cpu(sim, cpuName, 0, spec);
  Time done = -1;
  auto p = [&]() -> Task<void> {
    for (int i = 0; i < 20; ++i) co_await cpu.compute(100_us);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  sim.run();
  return done;
}

TEST(CpuNoise, DaemonsStretchComputeDeterministically) {
  const NoiseSpec spec = demoSpec();
  const Time noisy = noisyComputeCompletion(spec, "cpu0.0");
  const Time quiet = noisyComputeCompletion(NoiseSpec{}, "cpu0.0");
  EXPECT_DOUBLE_EQ(quiet, 20 * 100e-6);
  EXPECT_GT(noisy, quiet) << "daemon windows must steal wall-clock time";
  // Bit-reproducible from (seed, cpu): the exact same completion time.
  EXPECT_DOUBLE_EQ(noisy, noisyComputeCompletion(spec, "cpu0.0"));
  // A different seed gives a different schedule.
  NoiseSpec reseeded = spec;
  reseeded.seed = 43;
  EXPECT_NE(noisy, noisyComputeCompletion(reseeded, "cpu0.0"));
}

TEST(CpuNoise, StrictlyPeriodicNoiseRunsToCompletion) {
  // The documented jitter=0 mode: preemptions arm exactly on slot
  // boundaries. This aborted before the boundary-robust slot lookup.
  NoiseSpec spec = demoSpec();
  spec.jitter = 0.0;
  const Time noisy = noisyComputeCompletion(spec, "cpu0.0");
  EXPECT_GT(noisy, 20 * 100e-6) << "daemon windows must steal time";
  EXPECT_DOUBLE_EQ(noisy, noisyComputeCompletion(spec, "cpu0.0"));
}

TEST(CpuNoise, AccountingSplitsUserAndNoise) {
  ShardContext sim;
  Cpu cpu(sim, "cpu0.0", 0, demoSpec());
  auto p = [&]() -> Task<void> { co_await cpu.compute(2_ms); };
  sim.spawn(p(), "p");
  sim.run();
  EXPECT_DOUBLE_EQ(cpu.userTime(), 2e-3);
  EXPECT_GT(cpu.noisePreemptions(), 0u);
  EXPECT_GT(cpu.noiseTime(), 0.0);
  // Wall clock = user work + enforced daemon windows (no ISRs here).
  EXPECT_NEAR(sim.now(), cpu.userTime() + cpu.noiseTime(), 1e-12);
}

TEST(CpuNoise, IdleMachineQuiescesWithInjectorAttached) {
  ShardContext sim;
  Cpu cpu(sim, "cpu0.0", 0, demoSpec());
  auto p = [&]() -> Task<void> { co_await sim.delay(1_ms); };
  sim.spawn(p(), "p");
  sim.run();  // must terminate: no free-running daemon events
  EXPECT_DOUBLE_EQ(sim.now(), 1e-3);
  EXPECT_EQ(cpu.noisePreemptions(), 0u);
}

TEST(CpuNoise, CoalescingDefersFirstIsrOfBatch) {
  NoiseSpec spec;  // coalescing only, no daemons
  spec.coalesce = 5_us;
  ShardContext sim;
  Cpu cpu(sim, "cpu0.0", 0, spec);
  std::vector<Time> fired;
  sim.schedule(0.0, [&] {
    cpu.raiseInterrupt(2_us, [&] { fired.push_back(sim.now()); });
    cpu.raiseInterrupt(2_us, [&] { fired.push_back(sim.now()); });
  });
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  // First ISR: held 5 us, then 2 us of service; the second batches
  // straight behind it.
  EXPECT_DOUBLE_EQ(fired[0], 7e-6);
  EXPECT_DOUBLE_EQ(fired[1], 9e-6);
}

TEST(CpuNoise, IsrPreemptsDaemonWindowInteraction) {
  // An ISR raised while a daemon window holds the CPU runs on schedule;
  // the user job resumes only after both are over.
  const NoiseSpec spec = demoSpec();
  ShardContext sim;
  Cpu cpu(sim, "cpu0.0", 0, spec);
  Time done = -1;
  auto p = [&]() -> Task<void> {
    co_await cpu.compute(1_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  sim.schedule(100_us, [&] { cpu.raiseInterrupt(50_us); });
  sim.run();
  EXPECT_GE(done, 1e-3 + 50e-6);
  EXPECT_DOUBLE_EQ(cpu.userTime(), 1e-3);
  EXPECT_DOUBLE_EQ(cpu.isrTime(), 50e-6);
}

}  // namespace
}  // namespace comb::host
