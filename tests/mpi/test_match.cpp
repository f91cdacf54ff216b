#include "mpi/match.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

namespace comb::mpi {
namespace {

// The driver's record of an unexpected message, held inline by the engine.
using Engine = MatchEngine<std::uint64_t>;

constexpr Bytes kBig = 1 << 20;  // a receive buffer every test message fits

Envelope env(CommId c, Rank src, Tag tag) { return Envelope{c, src, tag}; }

TEST(MatchEngine, ExactMatch) {
  Engine m;
  m.postRecv(Pattern{0, 1, 7}, 100, 42);
  const auto hit = m.matchArrival(env(0, 1, 7), 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cookie, 42u);
  EXPECT_EQ(m.postedCount(), 0u);
}

TEST(MatchEngine, MismatchedTagDoesNotMatch) {
  Engine m;
  m.postRecv(Pattern{0, 1, 7}, 100, 1);
  EXPECT_FALSE(m.matchArrival(env(0, 1, 8), 10).has_value());
  EXPECT_EQ(m.postedCount(), 1u);
}

TEST(MatchEngine, MismatchedSourceDoesNotMatch) {
  Engine m;
  m.postRecv(Pattern{0, 1, 7}, 100, 1);
  EXPECT_FALSE(m.matchArrival(env(0, 2, 7), 10).has_value());
}

TEST(MatchEngine, MismatchedCommDoesNotMatch) {
  Engine m;
  m.postRecv(Pattern{3, 1, 7}, 100, 1);
  EXPECT_FALSE(m.matchArrival(env(0, 1, 7), 10).has_value());
}

TEST(MatchEngine, AnySourceWildcard) {
  Engine m;
  m.postRecv(Pattern{0, kAnySource, 7}, 100, 5);
  const auto hit = m.matchArrival(env(0, 3, 7), 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cookie, 5u);
}

TEST(MatchEngine, AnyTagWildcard) {
  Engine m;
  m.postRecv(Pattern{0, 2, kAnyTag}, 100, 6);
  ASSERT_TRUE(m.matchArrival(env(0, 2, 99), 10).has_value());
}

TEST(MatchEngine, FullWildcard) {
  Engine m;
  m.postRecv(Pattern{0, kAnySource, kAnyTag}, 100, 6);
  ASSERT_TRUE(m.matchArrival(env(0, 9, 1234), 10).has_value());
}

TEST(MatchEngine, PostedOrderRespected) {
  // MPI: an arrival matches the FIRST posted receive that fits.
  Engine m;
  m.postRecv(Pattern{0, kAnySource, kAnyTag}, 100, 1);
  m.postRecv(Pattern{0, 2, 7}, 100, 2);
  const auto hit = m.matchArrival(env(0, 2, 7), 10);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->cookie, 1u);  // the wildcard was posted first
  // Second arrival takes the specific one.
  const auto hit2 = m.matchArrival(env(0, 2, 7), 10);
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(hit2->cookie, 2u);
}

TEST(MatchEngine, CancelRemovesPostedRecv) {
  Engine m;
  m.postRecv(Pattern{0, 1, 7}, 100, 11);
  EXPECT_TRUE(m.cancelRecv(11));
  EXPECT_FALSE(m.matchArrival(env(0, 1, 7), 10).has_value());
  // Cancelling twice fails.
  EXPECT_FALSE(m.cancelRecv(11));
}

TEST(MatchEngine, UnexpectedQueueFifoWithinPattern) {
  Engine m;
  m.addUnexpected(env(0, 1, 7), 10, 100);
  m.addUnexpected(env(0, 1, 7), 20, 101);
  const auto first = m.matchUnexpected(Pattern{0, 1, 7}, kBig);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->held, 100u);
  EXPECT_EQ(first->bytes, 10u);
  const auto second = m.matchUnexpected(Pattern{0, 1, 7}, kBig);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->held, 101u);
}

TEST(MatchEngine, UnexpectedWildcardTakesEarliest) {
  Engine m;
  m.addUnexpected(env(0, 2, 5), 10, 1);
  m.addUnexpected(env(0, 1, 7), 20, 2);
  const auto hit = m.matchUnexpected(Pattern{0, kAnySource, kAnyTag}, kBig);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->held, 1u);
}

TEST(MatchEngine, PeekDoesNotConsume) {
  Engine m;
  m.addUnexpected(env(0, 1, 7), 10, 50);
  const auto* peeked = m.peekUnexpected(Pattern{0, 1, 7});
  ASSERT_NE(peeked, nullptr);
  EXPECT_EQ(peeked->held, 50u);
  EXPECT_EQ(m.unexpectedCount(), 1u);
  ASSERT_TRUE(m.matchUnexpected(Pattern{0, 1, 7}, kBig).has_value());
  EXPECT_EQ(m.unexpectedCount(), 0u);
  EXPECT_EQ(m.peekUnexpected(Pattern{0, 1, 7}), nullptr);
}

TEST(MatchEngine, UnexpectedBytesTracked) {
  Engine m;
  m.addUnexpected(env(0, 1, 7), 100, 1);
  m.addUnexpected(env(0, 1, 8), 200, 2);
  EXPECT_EQ(m.unexpectedBytes(), 300u);
  m.matchUnexpected(Pattern{0, 1, 8}, kBig);
  EXPECT_EQ(m.unexpectedBytes(), 100u);
}

TEST(MatchEngine, NoFalseUnexpectedMatch) {
  Engine m;
  m.addUnexpected(env(0, 1, 7), 10, 1);
  EXPECT_FALSE(m.matchUnexpected(Pattern{0, 1, 8}, kBig).has_value());
  EXPECT_FALSE(m.matchUnexpected(Pattern{0, 2, 7}, kBig).has_value());
  EXPECT_FALSE(m.matchUnexpected(Pattern{1, 1, 7}, kBig).has_value());
}

TEST(MatchEngine, HeldRecordMovesThroughTheQueue) {
  // A driver's record can own resources; the engine stores and returns it
  // by value, never copying it.
  MatchEngine<std::unique_ptr<int>> m;
  m.addUnexpected(env(0, 1, 7), 10, std::make_unique<int>(7));
  auto hit = m.matchUnexpected(Pattern{0, 1, 7}, 10);
  ASSERT_TRUE(hit.has_value());
  ASSERT_NE(hit->held, nullptr);
  EXPECT_EQ(*hit->held, 7);
}

TEST(MatchEngine, ArrivalLongerThanPostedReceiveIsFatal) {
  Engine m;
  m.postRecv(Pattern{0, 1, 7}, 100, 1);
  EXPECT_TRUE(m.matchArrival(env(0, 1, 7), 100).has_value());
  m.postRecv(Pattern{0, 1, 7}, 100, 2);
  EXPECT_DEATH(m.matchArrival(env(0, 1, 7), 101),
               "message exceeds posted receive buffer");
}

TEST(MatchEngine, ClaimOfLongerUnexpectedMessageIsFatal) {
  Engine m;
  m.addUnexpected(env(0, 1, 7), 100, 1);
  m.addUnexpected(env(0, 1, 7), 101, 2);
  EXPECT_TRUE(m.matchUnexpected(Pattern{0, 1, 7}, 100).has_value());
  EXPECT_DEATH(m.matchUnexpected(Pattern{0, 1, 7}, 100),
               "unexpected message exceeds posted receive buffer");
}

}  // namespace
}  // namespace comb::mpi
