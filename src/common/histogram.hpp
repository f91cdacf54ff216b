// Fixed-bin histogram used by the trace/analysis layer (e.g. distribution
// of interrupt service times or per-message wait durations).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace comb {

class Histogram {
 public:
  /// Uniform bins over [lo, hi); samples outside land in the two overflow
  /// counters.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);
  void clear();

  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  std::size_t total() const { return total_; }

  double binLow(std::size_t bin) const;
  double binHigh(std::size_t bin) const;

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  /// Render a horizontal bar chart.
  std::string str(std::size_t maxBarWidth = 40) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
  std::size_t total_ = 0;
};

}  // namespace comb
