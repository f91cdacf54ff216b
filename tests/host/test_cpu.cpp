#include "host/cpu.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/units.hpp"

namespace comb::host {
namespace {

using namespace comb::units;
using sim::ShardContext;
using sim::Task;

TEST(Cpu, ComputeTakesExactlyItsTimeWhenUndisturbed) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time done = -1;
  auto p = [&]() -> Task<void> {
    co_await cpu.compute(5_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  sim.run();
  EXPECT_DOUBLE_EQ(done, 5e-3);
  EXPECT_DOUBLE_EQ(cpu.userTime(), 5e-3);
  EXPECT_DOUBLE_EQ(cpu.isrTime(), 0.0);
}

TEST(Cpu, ZeroComputeCompletesAtSameTime) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time done = -1;
  auto p = [&]() -> Task<void> {
    co_await sim.delay(1_ms);
    co_await cpu.compute(0.0);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  sim.run();
  EXPECT_DOUBLE_EQ(done, 1e-3);
}

TEST(Cpu, InterruptExtendsRunningCompute) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time done = -1;
  auto p = [&]() -> Task<void> {
    co_await cpu.compute(10_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  // 2 ms of ISR raised mid-compute delays completion to 12 ms.
  sim.schedule(4_ms, [&] { cpu.raiseInterrupt(2_ms); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 12e-3);
  EXPECT_DOUBLE_EQ(cpu.userTime(), 10e-3);
  EXPECT_DOUBLE_EQ(cpu.isrTime(), 2e-3);
}

TEST(Cpu, BackToBackInterruptsQueueFifo) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  std::vector<int> handled;
  Time done = -1;
  auto p = [&]() -> Task<void> {
    co_await cpu.compute(10_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  sim.schedule(1_ms, [&] {
    cpu.raiseInterrupt(1_ms, [&] { handled.push_back(1); });
    cpu.raiseInterrupt(2_ms, [&] { handled.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(handled, (std::vector<int>{1, 2}));
  EXPECT_DOUBLE_EQ(done, 13e-3);
  EXPECT_DOUBLE_EQ(cpu.isrTime(), 3e-3);
  EXPECT_EQ(cpu.interruptsRaised(), 2u);
}

TEST(Cpu, InterruptDuringIsrExtendsBusyPeriod) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time done = -1;
  auto p = [&]() -> Task<void> {
    co_await cpu.compute(4_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  sim.schedule(1_ms, [&] { cpu.raiseInterrupt(2_ms); });
  // Arrives while the first ISR is in service.
  sim.schedule(2_ms, [&] { cpu.raiseInterrupt(3_ms); });
  sim.run();
  // Compute: 1 ms ran, then 5 ms of contiguous ISR (1..6 ms), then 3 ms.
  EXPECT_DOUBLE_EQ(done, 9e-3);
  EXPECT_DOUBLE_EQ(cpu.isrTime(), 5e-3);
}

TEST(Cpu, ComputeStartedDuringIsrWaits) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time done = -1;
  sim.schedule(0_ms, [&] { cpu.raiseInterrupt(5_ms); });
  auto p = [&]() -> Task<void> {
    co_await sim.delay(1_ms);  // ISR busy 0..5 ms
    co_await cpu.compute(2_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  sim.run();
  EXPECT_DOUBLE_EQ(done, 7e-3);
  EXPECT_DOUBLE_EQ(cpu.userTime(), 2e-3);
}

TEST(Cpu, HandlerRunsAtServiceCompletion) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time handledAt = -1;
  sim.schedule(1_ms, [&] {
    cpu.raiseInterrupt(2_ms, [&] { handledAt = sim.now(); });
  });
  sim.run();
  EXPECT_DOUBLE_EQ(handledAt, 3e-3);
}

TEST(Cpu, InterruptWorkAwaitable) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time done = -1;
  auto p = [&]() -> Task<void> {
    co_await sim.delay(1_ms);
    co_await cpu.interruptWork(4_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  sim.run();
  EXPECT_DOUBLE_EQ(done, 5e-3);
  EXPECT_DOUBLE_EQ(cpu.isrTime(), 4e-3);
}

TEST(Cpu, SequentialComputesFifo) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  std::vector<Time> doneTimes;
  auto p = [&](Time dur) -> Task<void> {
    co_await cpu.compute(dur);
    doneTimes.push_back(sim.now());
  };
  sim.spawn(p(2_ms), "a");
  sim.spawn(p(3_ms), "b");
  sim.run();
  ASSERT_EQ(doneTimes.size(), 2u);
  EXPECT_DOUBLE_EQ(doneTimes[0], 2e-3);
  EXPECT_DOUBLE_EQ(doneTimes[1], 5e-3);
  EXPECT_DOUBLE_EQ(cpu.userTime(), 5e-3);
}

TEST(Cpu, ManyInterruptsAccountingIdentity) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time done = -1;
  auto p = [&]() -> Task<void> {
    co_await cpu.compute(100_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  // 50 interrupts of 100 us each, every 1 ms: 5 ms total service.
  for (int i = 1; i <= 50; ++i)
    sim.schedule(static_cast<Time>(i) * 1_ms,
                 [&] { cpu.raiseInterrupt(100_us); });
  sim.run();
  EXPECT_NEAR(done, 105e-3, 1e-12);
  EXPECT_NEAR(cpu.userTime(), 100e-3, 1e-12);
  EXPECT_NEAR(cpu.isrTime(), 5e-3, 1e-12);
  EXPECT_EQ(cpu.interruptsRaised(), 50u);
}

TEST(Cpu, AvailabilityRatioMatchesStolenFraction) {
  // The COMB availability identity in miniature: work that takes T dry
  // takes T / (1 - stolenFraction) with a periodic interrupt load.
  ShardContext sim;
  Cpu cpu(sim, "n0");
  Time start = -1, done = -1;
  auto p = [&]() -> Task<void> {
    start = sim.now();
    co_await cpu.compute(50_ms);
    done = sim.now();
  };
  sim.spawn(p(), "p");
  // Steal 25%: 250 us ISR every 1 ms, far beyond the horizon.
  for (int i = 0; i < 200; ++i)
    sim.schedule(static_cast<Time>(i) * 1_ms + 0.1_ms,
                 [&] { cpu.raiseInterrupt(250_us); });
  sim.run();
  const double availability = 50e-3 / (done - start);
  EXPECT_NEAR(availability, 0.75, 0.01);
}

TEST(Cpu, UserTimeQueryMidJob) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  auto p = [&]() -> Task<void> { co_await cpu.compute(10_ms); };
  sim.spawn(p(), "p");
  Time midUser = -1;
  sim.schedule(4_ms, [&] { midUser = cpu.userTime(); });
  sim.run();
  EXPECT_DOUBLE_EQ(midUser, 4e-3);
}

TEST(Cpu, IsrTimeQueryMidService) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  sim.schedule(1_ms, [&] { cpu.raiseInterrupt(4_ms); });
  Time midIsr = -1;
  sim.schedule(3_ms, [&] { midIsr = cpu.isrTime(); });
  sim.run();
  EXPECT_DOUBLE_EQ(midIsr, 2e-3);
  EXPECT_DOUBLE_EQ(cpu.isrTime(), 4e-3);
}

TEST(Cpu, BusyWithUserFlag) {
  ShardContext sim;
  Cpu cpu(sim, "n0");
  EXPECT_FALSE(cpu.busyWithUser());
  auto p = [&]() -> Task<void> { co_await cpu.compute(2_ms); };
  sim.spawn(p(), "p");
  sim.schedule(1_ms, [&] { EXPECT_TRUE(cpu.busyWithUser()); });
  sim.run();
  EXPECT_FALSE(cpu.busyWithUser());
}

}  // namespace
}  // namespace comb::host
