#include "common/histogram.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  COMB_REQUIRE(hi > lo, "histogram range must be non-empty");
  COMB_REQUIRE(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double t = (x - lo_) / (hi_ - lo_);
  auto bin = static_cast<std::size_t>(t * static_cast<double>(counts_.size()));
  bin = std::min(bin, counts_.size() - 1);
  ++counts_[bin];
}

void Histogram::clear() {
  std::fill(counts_.begin(), counts_.end(), 0u);
  underflow_ = overflow_ = total_ = 0;
}

double Histogram::binLow(std::size_t bin) const {
  COMB_ASSERT(bin < counts_.size(), "histogram bin out of range");
  return lo_ + (hi_ - lo_) * static_cast<double>(bin) /
                   static_cast<double>(counts_.size());
}

double Histogram::binHigh(std::size_t bin) const {
  return binLow(bin) + (hi_ - lo_) / static_cast<double>(counts_.size());
}

std::string Histogram::str(std::size_t maxBarWidth) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::ostringstream os;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = counts_[b] * maxBarWidth / peak;
    os << strFormat("[%11.4g, %11.4g) %8zu ", binLow(b), binHigh(b),
                    counts_[b])
       << std::string(bar, '#') << '\n';
  }
  if (underflow_ || overflow_)
    os << strFormat("underflow %zu, overflow %zu\n", underflow_, overflow_);
  return os.str();
}

}  // namespace comb
