#include "common/histogram.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace comb {
namespace {

TEST(Histogram, BinPlacement) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);   // bin 0
  h.add(0.99);  // bin 0
  h.add(5.0);   // bin 5
  h.add(9.99);  // bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, OverflowUnderflow) {
  Histogram h(0.0, 1.0, 4);
  h.add(-0.1);
  h.add(1.0);  // hi edge is exclusive -> overflow
  h.add(2.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, BinEdges) {
  Histogram h(10.0, 20.0, 5);
  EXPECT_DOUBLE_EQ(h.binLow(0), 10.0);
  EXPECT_DOUBLE_EQ(h.binHigh(0), 12.0);
  EXPECT_DOUBLE_EQ(h.binLow(4), 18.0);
  EXPECT_DOUBLE_EQ(h.binHigh(4), 20.0);
}

TEST(Histogram, ClearResets) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.5);
  h.add(5.0);
  h.clear();
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.count(1), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, RenderContainsBars) {
  Histogram h(0.0, 2.0, 2);
  for (int i = 0; i < 8; ++i) h.add(0.5);
  h.add(1.5);
  const auto s = h.str(8);
  EXPECT_NE(s.find("########"), std::string::npos);
  EXPECT_NE(s.find("#"), std::string::npos);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), ConfigError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ConfigError);
}

}  // namespace
}  // namespace comb
