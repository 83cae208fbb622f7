// SPDX-License-Identifier: Apache-2.0
// Streaming statistics accumulator (Welford) plus a tiny fixed-bin histogram.
// Used for simulator performance counters and for the statistical timing
// model in phys/.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"

namespace mp3d {

/// Online mean/variance/min/max over a stream of samples.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  u64 count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double variance() const;  ///< population variance
  double stddev() const;
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  double sum() const { return n_ == 0 ? 0.0 : mean_ * static_cast<double>(n_); }

 private:
  u64 n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Percentile of `samples` by linear interpolation between order statistics
/// (the rank is q*(n-1); fractional ranks blend the two neighbours). The
/// caller's vector is left untouched — selection runs on a copy — so a
/// caller can keep reusing its sample buffer. Returns 0 for an empty vector
/// and the sole value for n == 1. `q` is clamped into [0, 1].
double percentile(const std::vector<u64>& samples, double q);

/// percentile() without the copy: selects in place, so `samples` comes back
/// reordered (the same multiset). For a buffer that is cleared or queried
/// again afterwards, such as a per-window latency buffer.
double select_percentile(std::span<u64> samples, double q);

/// Fixed-range histogram with uniform bins; values outside the range are
/// clamped into the first/last bin.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, u64 weight = 1);
  u64 total() const { return total_; }
  const std::vector<u64>& bins() const { return counts_; }
  double bin_lo(std::size_t i) const;
  double bin_hi(std::size_t i) const;
  /// Value below which `q` (0..1) of the mass lies (linear within bin).
  double quantile(double q) const;
  std::string to_string(std::size_t max_width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<u64> counts_;
  u64 total_ = 0;
};

}  // namespace mp3d
