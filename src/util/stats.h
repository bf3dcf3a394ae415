// Statistics accumulators used by tests and the benchmark harness.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace sprite::util {

// Streaming mean/variance/min/max (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);

  std::int64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return sum_; }

  std::string summary() const;  // "n=.. mean=.. sd=.. min=.. max=.."

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Exact-sample distribution: keeps every observation, provides quantiles.
// Fine for the simulation's data volumes (≤ millions of points).
class Distribution {
 public:
  void add(double x) { xs_.push_back(x); sorted_ = false; }

  std::size_t count() const { return xs_.size(); }
  double mean() const;
  // q in [0,1]; nearest-rank. Returns 0 when empty.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  double min() const { return quantile(0.0); }
  double max() const { return quantile(1.0); }

 private:
  mutable std::vector<double> xs_;
  mutable bool sorted_ = true;
};

}  // namespace sprite::util
