#include "util/stats.h"

#include <cmath>
#include <cstdio>

#include "util/assert.h"

namespace sprite::util {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const {
  return n_ > 0 ? m2_ / static_cast<double>(n_) : 0.0;
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

std::string Accumulator::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "n=%lld mean=%.3f sd=%.3f min=%.3f max=%.3f",
                static_cast<long long>(n_), mean(), stddev(), min(), max());
  return buf;
}

double Distribution::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double Distribution::quantile(double q) const {
  if (xs_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(xs_.begin(), xs_.end());
    sorted_ = true;
  }
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(xs_.size() - 1) + 0.5);
  return xs_[rank];
}

}  // namespace sprite::util
