// ReliableLink unit tests: the ack/retransmit/dedup engine shared by the
// NIC models, driven directly — backoff schedule, ack bookkeeping,
// receive-side dedup, the retry budget, the lossless no-op, and the edges
// of the flat books (id holes, out-of-order first sightings, messages
// wider than one 64-bit word, record addresses that must not move).
#include "nic/reliable_link.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "net/fabric.hpp"
#include "net/fault.hpp"

namespace comb::nic {
namespace {

using namespace comb::units;
using transport::WireKind;
using transport::WirePayload;

// Three fragments at the 4096-byte MTU: 4096 + 4096 + 1808.
constexpr Bytes kMsgBytes = 10'000;

net::FabricConfig fabricConfig(const std::string& fault) {
  net::FabricConfig cfg;
  cfg.link.rate = 100e6;
  cfg.link.latency = 1_us;
  if (!fault.empty()) cfg.link.fault = net::parseFaultSpec(fault);
  return cfg;
}

// Node 0 owns the link under test; node 1 only collects what reaches it.
struct Fixture {
  sim::ShardContext sim;
  net::Fabric fabric;
  std::vector<net::Packet> at1;
  net::NodeId n0;
  net::NodeId n1;
  std::function<void(std::uint64_t)> hook = [](std::uint64_t) {};
  ReliableLink link;

  explicit Fixture(const std::string& fault,
                   transport::ReliabilityConfig rel = {})
      : fabric(sim, fabricConfig(fault)),
        n0(fabric.addNode([](net::Packet) {})),
        n1(fabric.addNode([this](net::Packet p) { at1.push_back(p); })),
        link(sim, fabric, n0, {"test", "Test"}, rel,
             [this](std::uint64_t msgId) { hook(msgId); }) {}

  /// Track a `bytes` message to node 1 carrying a data buffer, sent on
  /// behalf of MPI handle senderHandleOf(msgId).
  MessageMeta track(std::uint64_t msgId, bool reportDone = true,
                    Bytes bytes = kMsgBytes) {
    auto data = std::make_shared<const std::vector<std::byte>>(8);
    auto meta = link.describe(WireKind::Eager, msgId, bytes,
                              mpi::Envelope{0, 0, 1}, bytes,
                              std::move(data), senderHandleOf(msgId), 0);
    link.track(n1, bytes, meta, reportDone);
    return meta;
  }

  static std::uint64_t senderHandleOf(std::uint64_t msgId) {
    return 1000 + msgId;
  }

  MessageMeta ack(std::uint64_t msgId, std::uint32_t frag) {
    return link.onAck(*link.ackPayload(msgId, frag));
  }
};

// The last ack of a reported message hands back that message's metadata,
// MPI handle included.
void expectCompleted(const MessageMeta& done, std::uint64_t msgId) {
  ASSERT_TRUE(done);
  EXPECT_EQ(done->msgId, msgId);
  EXPECT_EQ(done->senderHandle, Fixture::senderHandleOf(msgId));
  EXPECT_EQ(done->kind, WireKind::Eager);
}

WirePayload fragment(std::uint64_t msgId, std::uint32_t index,
                     std::uint32_t count = 2) {
  WirePayload wp;
  wp.msgId = msgId;
  wp.fragIndex = index;
  wp.fragCount = count;
  return wp;
}

TEST(ReliableLink, FragmentsAreClonesOfTheMetadata) {
  Fixture f("");
  const MessageMeta meta = f.track(1);
  ASSERT_EQ(meta->fragCount, 3u);
  for (std::uint32_t i = 0; i < meta->fragCount; ++i)
    f.link.injectFragment(meta, f.n1, kMsgBytes, i);
  f.sim.run();
  ASSERT_EQ(f.at1.size(), 3u);
  const Bytes header = f.fabric.perPacketHeader();
  const Bytes expectBytes[] = {4096, 4096, 1808};
  for (std::uint32_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    const auto* wp = net::payloadAs<WirePayload>(f.at1[i]);
    ASSERT_NE(wp, nullptr);
    EXPECT_EQ(wp->fragIndex, i);
    EXPECT_EQ(wp->msgId, 1u);
    EXPECT_EQ(f.at1[i].wireBytes, expectBytes[i] + header);
    EXPECT_EQ(f.link.fragBytes(kMsgBytes, i), expectBytes[i]);
    // The whole buffer rides fragment 0 only.
    EXPECT_EQ(wp->data != nullptr, i == 0);
  }
}

TEST(ReliableLink, TimerBackoffIsTheRepeatedMultiplySchedule) {
  transport::ReliabilityConfig rel;
  // Chosen so that an rto built with std::pow differs from the repeated
  // multiply in the last bit (rounds 2 and 3), which moves the round-2
  // firing time.
  rel.ackTimeout = 1.3e-3;
  rel.backoff = 1.9;
  Fixture f("drop=0.5,seed=1", rel);
  f.track(1);
  std::vector<Time> fired;
  f.hook = [&f, &fired](std::uint64_t msgId) {
    fired.push_back(f.sim.now());
    if (fired.size() == 4) return;  // the first firing plus 3 backoffs
    f.link.beginRound(msgId);
    ASSERT_TRUE(f.link.arm(msgId, f.sim.now()));
  };
  const Time base = 0.25e-3;
  ASSERT_TRUE(f.link.arm(1, base));
  f.sim.run();

  std::vector<Time> want;
  Time at = base;
  for (int round = 0; round < 4; ++round) {
    Time rto = rel.ackTimeout;
    for (int i = 0; i < round; ++i) rto *= rel.backoff;
    at += rto;
    want.push_back(at);
  }
  ASSERT_EQ(fired.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(fired[i], want[i]);
  EXPECT_EQ(f.link.timeoutWakeups(), 4u);
}

TEST(ReliableLink, StaleDuplicateAndOutOfRangeAcksAreIgnored) {
  Fixture f("drop=0.5,seed=1");
  int timeouts = 0;
  f.hook = [&timeouts](std::uint64_t) { ++timeouts; };
  f.track(1);
  ASSERT_TRUE(f.link.arm(1, 0.0));

  EXPECT_FALSE(f.ack(1, 0));
  EXPECT_FALSE(f.ack(1, 0));   // duplicate
  EXPECT_FALSE(f.ack(1, 3));   // out of range
  EXPECT_FALSE(f.ack(99, 0));  // never tracked
  EXPECT_FALSE(f.ack(1, 1));
  const auto plan = f.link.plan(1);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->kind, WireKind::Eager);
  EXPECT_EQ(plan->missingBytes, 1808u);

  expectCompleted(f.ack(1, 2), 1);  // completion, reported once
  EXPECT_FALSE(f.ack(1, 2));  // stale
  EXPECT_FALSE(f.ack(1, 0));
  EXPECT_FALSE(f.link.plan(1).has_value());
  EXPECT_FALSE(f.link.arm(1, 0.0));

  // A message tracked without reportDone completes silently.
  f.track(2, /*reportDone=*/false);
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_FALSE(f.ack(2, i));
  EXPECT_FALSE(f.link.plan(2).has_value());

  f.sim.run();  // completion cancelled the armed timer
  EXPECT_EQ(timeouts, 0);
  EXPECT_EQ(f.link.timeoutWakeups(), 0u);
}

TEST(ReliableLink, DuplicateIsCaughtAfterItsMessageCompleted) {
  Fixture f("drop=0.000001,seed=1");
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(7, 0), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(7, 1), false));
  // Message 7 is complete; its fragments are remembered regardless.
  EXPECT_FALSE(f.link.firstSighting(f.n1, fragment(7, 0), false));
  EXPECT_EQ(f.link.duplicatesFiltered(), 1u);
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(8, 0), false));
  f.sim.run();
  EXPECT_TRUE(f.at1.empty());  // no re-ack asked for

  EXPECT_FALSE(f.link.firstSighting(f.n1, fragment(7, 1), true));
  EXPECT_EQ(f.link.duplicatesFiltered(), 2u);
  f.sim.run();
  ASSERT_EQ(f.at1.size(), 1u);
  const auto* ack = net::payloadAs<WirePayload>(f.at1[0]);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->kind, WireKind::Ack);
  EXPECT_EQ(ack->msgId, 7u);
  EXPECT_EQ(ack->ackFragIndex, 1u);
}

TEST(ReliableLink, OlderMessageFirstSeenAfterANewerOne) {
  Fixture f("drop=0.000001,seed=1");
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(9, 0), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(5, 1), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(7, 0), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(5, 0), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(9, 1), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(3, 1), false));
  // Each message keeps its own bits, whatever order they were taken in.
  const std::pair<std::uint64_t, std::uint32_t> seen[] = {
      {9, 0}, {5, 1}, {7, 0}, {5, 0}, {9, 1}, {3, 1}};
  for (const auto& [id, frag] : seen)
    EXPECT_FALSE(f.link.firstSighting(f.n1, fragment(id, frag), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(7, 1), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(3, 0), false));
  EXPECT_FALSE(f.link.firstSighting(f.n1, fragment(3, 0), false));
  // The same ids from another source are different messages.
  EXPECT_TRUE(f.link.firstSighting(f.n0, fragment(5, 0), false));
  EXPECT_EQ(f.link.duplicatesFiltered(), 7u);
}

TEST(ReliableLink, UntrackedIdsLeaveHolesInTheWindow) {
  // GM spends message ids on its untracked firmware acks, so the tracked
  // ids of one NIC can skip.
  Fixture f("drop=0.5,seed=1");
  f.track(1);
  f.track(4);
  f.track(6, /*reportDone=*/false);
  for (const std::uint64_t hole : {0, 2, 3, 5, 7}) {
    SCOPED_TRACE(hole);
    EXPECT_FALSE(f.ack(hole, 0));
    EXPECT_FALSE(f.link.plan(hole).has_value());
    EXPECT_FALSE(f.link.arm(hole, 0.0));
  }
  // Complete the middle message first: the window's front stays put.
  for (std::uint32_t i = 0; i < 2; ++i) EXPECT_FALSE(f.ack(4, i));
  expectCompleted(f.ack(4, 2), 4);
  EXPECT_FALSE(f.link.plan(4).has_value());
  EXPECT_TRUE(f.link.plan(1).has_value());
  EXPECT_TRUE(f.link.plan(6).has_value());
  for (std::uint32_t i = 0; i < 2; ++i) EXPECT_FALSE(f.ack(1, i));
  expectCompleted(f.ack(1, 2), 1);
  // Only 6 is left; a later id is tracked past a fresh hole.
  f.track(40);
  EXPECT_TRUE(f.link.plan(6).has_value());
  EXPECT_TRUE(f.link.plan(40).has_value());
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_FALSE(f.ack(6, i));
  EXPECT_FALSE(f.link.plan(6).has_value());
  for (std::uint32_t i = 0; i < 2; ++i) EXPECT_FALSE(f.ack(40, i));
  expectCompleted(f.ack(40, 2), 40);
  // An emptied window restarts at the next id.
  f.track(41);
  EXPECT_TRUE(f.link.plan(41).has_value());
  EXPECT_FALSE(f.link.plan(40).has_value());
}

TEST(ReliableLink, DuplicateOfARetiredMessageIsFilteredAndReacked) {
  Fixture f("drop=0.000001,seed=1");
  // Many messages from node 1, every fragment seen, so message 1 is long
  // delivered and far behind the newest entry.
  for (std::uint64_t id = 1; id <= 200; ++id)
    for (std::uint32_t i = 0; i < 2; ++i)
      ASSERT_TRUE(f.link.firstSighting(f.n1, fragment(id, i), false));
  // GM: filtered, no re-ack (it acks every healthy fragment itself).
  EXPECT_FALSE(f.link.firstSighting(f.n1, fragment(1, 1), false));
  f.sim.run();
  EXPECT_TRUE(f.at1.empty());
  // Portals/RDMA: filtered and re-acked, the first ack may have been lost.
  EXPECT_FALSE(f.link.firstSighting(f.n1, fragment(1, 0), true));
  EXPECT_FALSE(f.link.firstSighting(f.n1, fragment(100, 1), true));
  EXPECT_EQ(f.link.duplicatesFiltered(), 3u);
  f.sim.run();
  ASSERT_EQ(f.at1.size(), 2u);
  const auto* ack = net::payloadAs<WirePayload>(f.at1[0]);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->kind, WireKind::Ack);
  EXPECT_EQ(ack->msgId, 1u);
  EXPECT_EQ(ack->ackFragIndex, 0u);
  ack = net::payloadAs<WirePayload>(f.at1[1]);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->msgId, 100u);
  EXPECT_EQ(ack->ackFragIndex, 1u);
}

TEST(ReliableLink, MessagesWiderThanOneBitWord) {
  Fixture f("drop=0.5,seed=1");
  // Receiver: 100 fragments straddle two 64-bit words; the neighbouring
  // 3-fragment messages must not share any of their bits.
  constexpr std::uint32_t kWide = 100;
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(1, 0, 3), false));
  for (std::uint32_t i = 0; i < kWide; i += 2)
    EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(2, i, kWide), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(3, 2, 3), false));
  for (std::uint32_t i = 1; i < kWide; i += 2)
    EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(2, i, kWide), false));
  for (std::uint32_t i = 0; i < kWide; ++i)
    EXPECT_FALSE(f.link.firstSighting(f.n1, fragment(2, i, kWide), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(1, 1, 3), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(1, 2, 3), false));
  EXPECT_TRUE(f.link.firstSighting(f.n1, fragment(3, 0, 3), false));
  EXPECT_EQ(f.link.duplicatesFiltered(), kWide);

  // Sender: completion lands on the last of 100 acks, in any order.
  const MessageMeta meta = f.track(5, true, kWide * f.fabric.mtu());
  ASSERT_EQ(meta->fragCount, kWide);
  for (std::uint32_t i = kWide - 1; i > 0; --i) EXPECT_FALSE(f.ack(5, i));
  const auto plan = f.link.plan(5);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->missingBytes, f.fabric.mtu());
  expectCompleted(f.ack(5, 0), 5);
  EXPECT_FALSE(f.link.plan(5).has_value());
}

TEST(ReliableLink, RoundRecordStaysValidWhileMoreMessagesAreTracked) {
  Fixture f("drop=0.5,seed=1");
  f.track(1);
  EXPECT_FALSE(f.ack(1, 1));
  const ReliableLink::Unacked& u = f.link.beginRound(1);
  // Enough later messages to grow the window and the record pool many
  // times over, with completions recycling records in between.
  for (std::uint64_t id = 2; id < 2000; ++id) {
    f.track(id);
    if (id % 3 == 0)
      for (std::uint32_t i = 0; i < 3; ++i) f.ack(id, i);
  }
  EXPECT_EQ(u.retries, 1);
  EXPECT_EQ(u.dst, f.n1);
  EXPECT_EQ(u.wireBytes, kMsgBytes);
  EXPECT_EQ(u.meta->msgId, 1u);
  ASSERT_EQ(u.acked.size(), 3u);
  EXPECT_FALSE(u.acked[0]);
  EXPECT_TRUE(u.acked[1]);
  EXPECT_FALSE(f.ack(1, 0));
  EXPECT_TRUE(u.acked[0]);
  EXPECT_EQ(&f.link.beginRound(1), &u);
}

TEST(ReliableLink, ReplayThrowsOnceTheBudgetIsSpent) {
  transport::ReliabilityConfig rel;
  rel.maxRetries = 2;
  Fixture f("drop=1,seed=1", rel);
  f.hook = [&f](std::uint64_t msgId) { f.link.replay(msgId); };
  const MessageMeta meta = f.track(1);
  for (std::uint32_t i = 0; i < meta->fragCount; ++i)
    f.link.injectFragment(meta, f.n1, kMsgBytes, i);
  ASSERT_TRUE(f.link.arm(1, f.fabric.uplink(f.n0).freeAt()));
  try {
    f.sim.run();
    ADD_FAILURE() << "run finished despite an exhausted retry budget";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "Test: retransmit budget exhausted for message 1 after 2 "
                 "rounds");
  }
  EXPECT_EQ(f.link.retransmits(), 6u);  // 2 rounds of all 3 fragments
  EXPECT_EQ(f.link.timeoutWakeups(), 3u);
  EXPECT_TRUE(f.at1.empty());
  EXPECT_THROW(f.link.plan(1), Error);
  EXPECT_THROW(f.link.beginRound(1), Error);
}

TEST(ReliableLink, DisabledLinkSchedulesNothing) {
  Fixture f("");
  EXPECT_FALSE(f.link.enabled());
  const std::uint64_t scheduled = f.sim.eventsScheduled();
  f.track(1);
  EXPECT_FALSE(f.link.arm(1, 0.0));
  EXPECT_FALSE(f.link.plan(1).has_value());
  EXPECT_FALSE(f.ack(1, 0));
  EXPECT_EQ(f.sim.eventsScheduled(), scheduled);
  f.sim.run();
  EXPECT_EQ(f.link.timeoutWakeups(), 0u);
  EXPECT_EQ(f.link.retransmits(), 0u);
}

}  // namespace
}  // namespace comb::nic
