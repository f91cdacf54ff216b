// Fault-spec parsing and the link-level fault model: determinism,
// burstiness, corruption, jitter FIFO, and the inert zero-spec.
#include "net/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/link.hpp"

namespace comb::net {
namespace {

using namespace comb::units;
using sim::ShardContext;

Packet mkPacket(std::uint64_t seq, Bytes wire = 1000) {
  Packet p;
  p.src = 0;
  p.dst = 1;
  p.wireBytes = wire;
  p.seq = seq;
  return p;
}

TEST(FaultSpec, ParsesTheCliSyntax) {
  const auto spec = parseFaultSpec("drop=0.01,burst=4,seed=9");
  EXPECT_DOUBLE_EQ(spec.dropProb, 0.01);
  EXPECT_EQ(spec.burstLen, 4);
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_DOUBLE_EQ(spec.corruptProb, 0.0);
  EXPECT_TRUE(spec.lossy());

  const auto full =
      parseFaultSpec(" drop=0.05 , corrupt=0.02, jitter_us=3, seed=1 ");
  EXPECT_DOUBLE_EQ(full.dropProb, 0.05);
  EXPECT_DOUBLE_EQ(full.corruptProb, 0.02);
  EXPECT_NEAR(full.jitter, 3e-6, 1e-15);
  EXPECT_EQ(full.burstLen, 1);
}

TEST(FaultSpec, JitterOnlyIsActiveButNotLossy) {
  const auto spec = parseFaultSpec("jitter_us=5");
  EXPECT_FALSE(spec.lossy());
  EXPECT_TRUE(spec.active());
  EXPECT_FALSE(FaultSpec{}.active());
}

TEST(FaultSpec, RejectsBadInput) {
  EXPECT_THROW(parseFaultSpec("drop=1.5"), ConfigError);
  EXPECT_THROW(parseFaultSpec("drop=-0.1"), ConfigError);
  EXPECT_THROW(parseFaultSpec("burst=0,drop=0.1"), ConfigError);
  EXPECT_THROW(parseFaultSpec("jitter_us=-1"), ConfigError);
  EXPECT_THROW(parseFaultSpec("loss=0.1"), ConfigError);
  EXPECT_THROW(parseFaultSpec("drop"), ConfigError);
  EXPECT_THROW(parseFaultSpec("drop="), ConfigError);
  EXPECT_THROW(parseFaultSpec("drop=abc"), ConfigError);
}

TEST(FaultSpec, RejectsZeroBurstHoweverConstructed) {
  // burst=0 must be caught at validation, not wrap Link's burstRemaining
  // arithmetic (burstLen - 1) into a near-infinite loss run.
  FaultSpec spec;
  spec.dropProb = 0.1;
  spec.burstLen = 0;
  EXPECT_THROW(validateFaultSpec(spec), ConfigError);
  spec.burstLen = -3;
  EXPECT_THROW(validateFaultSpec(spec), ConfigError);

  ShardContext sim;
  LinkConfig cfg;
  cfg.rate = 100e6;
  cfg.fault.dropProb = 0.1;
  cfg.fault.burstLen = 0;
  EXPECT_THROW(Link(sim, cfg, "bad-burst"), ConfigError);
}

TEST(FaultSpec, SummaryRoundTrips) {
  auto spec = parseFaultSpec("drop=0.02,burst=3,corrupt=0.01,jitter_us=2");
  const auto again = parseFaultSpec(faultSpecSummary(spec));
  EXPECT_DOUBLE_EQ(again.dropProb, spec.dropProb);
  EXPECT_EQ(again.burstLen, spec.burstLen);
  EXPECT_DOUBLE_EQ(again.corruptProb, spec.corruptProb);
  EXPECT_NEAR(again.jitter, spec.jitter, 1e-15);
  EXPECT_EQ(again.seed, spec.seed);
}

/// Run `count` packets through a link with the given fault model and
/// return the seq numbers that arrived (in arrival order).
std::vector<std::uint64_t> survivors(const FaultSpec& fault,
                                     const std::string& name, int count,
                                     std::uint64_t* dropped = nullptr,
                                     std::uint64_t* corrupted = nullptr) {
  ShardContext sim;
  LinkConfig cfg;
  cfg.rate = 100e6;
  cfg.latency = 1e-6;
  cfg.fault = fault;
  Link link(sim, cfg, name);
  std::vector<std::uint64_t> arrived;
  link.setSink([&](Packet p) {
    if (!p.corrupted) arrived.push_back(p.seq);
  });
  for (int i = 0; i < count; ++i) link.send(mkPacket(i));
  sim.run();
  if (dropped) *dropped = link.packetsDropped();
  if (corrupted) *corrupted = link.packetsCorrupted();
  return arrived;
}

TEST(LinkFaults, DropPatternIsSeedAndNameDeterministic) {
  auto spec = parseFaultSpec("drop=0.3,seed=11");
  const auto a = survivors(spec, "l", 300);
  const auto b = survivors(spec, "l", 300);
  EXPECT_EQ(a, b);
  EXPECT_LT(a.size(), 300u);  // 0.3 drop over 300 packets: losses certain

  spec.seed = 12;
  EXPECT_NE(survivors(spec, "l", 300), a);
  spec.seed = 11;
  EXPECT_NE(survivors(spec, "other-link", 300), a);
}

TEST(LinkFaults, BurstsDropMoreAndAccountExactly) {
  std::uint64_t dropped1 = 0, dropped3 = 0;
  const auto single =
      survivors(parseFaultSpec("drop=0.05,burst=1,seed=5"), "l", 400,
                &dropped1);
  const auto burst =
      survivors(parseFaultSpec("drop=0.05,burst=3,seed=5"), "l", 400,
                &dropped3);
  EXPECT_EQ(single.size() + dropped1, 400u);
  EXPECT_EQ(burst.size() + dropped3, 400u);
  EXPECT_GT(dropped3, dropped1);
}

TEST(LinkFaults, CorruptionDeliversMarkedPackets) {
  std::uint64_t dropped = 0, corrupted = 0;
  const auto clean = survivors(parseFaultSpec("corrupt=1"), "l", 50, &dropped,
                               &corrupted);
  EXPECT_TRUE(clean.empty());  // every packet arrived corrupted
  EXPECT_EQ(corrupted, 50u);
  EXPECT_EQ(dropped, 0u);
}

TEST(LinkFaults, JitterDelaysButPreservesFifo) {
  ShardContext sim;
  LinkConfig cfg;
  cfg.rate = 100e6;
  cfg.latency = 1e-6;
  cfg.fault = parseFaultSpec("jitter_us=50,seed=3");
  Link link(sim, cfg, "l");
  std::vector<std::uint64_t> order;
  std::vector<Time> arrivals;
  link.setSink([&](Packet p) {
    order.push_back(p.seq);
    arrivals.push_back(sim.now());
  });
  for (int i = 0; i < 40; ++i) link.send(mkPacket(i));
  sim.run();
  ASSERT_EQ(order.size(), 40u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    EXPECT_GE(arrivals[i], arrivals[i - 1]);
  // 40 x 1000B at 100 MB/s is 400 us of serialization; jitter must have
  // pushed the tail past the lossless schedule at least once.
  EXPECT_GT(arrivals.back(), 400e-6 + 1e-6);
}

TEST(LinkFaults, DefaultSpecIsByteIdenticalToNoFaults) {
  const auto base = survivors(FaultSpec{}, "l", 20);
  FaultSpec noisySeed;  // inactive model, different seed: must not matter
  noisySeed.seed = 999;
  EXPECT_EQ(survivors(noisySeed, "l", 20), base);
  ASSERT_EQ(base.size(), 20u);
}

TEST(FaultCountersStruct, AggregatesAndDetectsActivity) {
  FaultCounters a;
  EXPECT_FALSE(a.any());
  FaultCounters b;
  b.dropsInjected = 2;
  b.retransmits = 3;
  a += b;
  a += b;
  EXPECT_EQ(a.dropsInjected, 4u);
  EXPECT_EQ(a.retransmits, 6u);
  EXPECT_TRUE(a.any());
}

}  // namespace
}  // namespace comb::net
