// SPDX-License-Identifier: Apache-2.0
#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/assert.hpp"

namespace mp3d {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) {
    return;
  }
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void RunningStats::reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  return n_ == 0 ? 0.0 : m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double select_percentile(std::span<u64> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  const auto at = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), at, samples.end());
  const double at_lo = static_cast<double>(*at);
  double at_hi = at_lo;
  if (hi != lo) {
    at_hi = static_cast<double>(*std::min_element(at + 1, samples.end()));
  }
  return at_lo * (1.0 - frac) + at_hi * frac;
}

double percentile(const std::vector<u64>& samples, double q) {
  std::vector<u64> scratch(samples);
  return select_percentile(scratch, q);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  MP3D_CHECK(hi > lo, "histogram range must be non-empty");
  MP3D_CHECK(bins > 0, "histogram needs at least one bin");
}

void Histogram::add(double x, u64 weight) {
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::ptrdiff_t>(frac * static_cast<double>(counts_.size()));
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double Histogram::bin_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bin_hi(std::size_t i) const { return bin_lo(i + 1); }

double Histogram::quantile(double q) const {
  if (total_ == 0) {
    return lo_;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  if (target == 0.0) {
    // q == 0: the minimum of the recorded mass. An empty leading bin would
    // satisfy `next >= 0` below and wrongly report `lo_`, so walk to the
    // first bin that actually holds mass.
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] > 0) {
        return bin_lo(i);
      }
    }
  }
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double in_bin =
          counts_[i] == 0 ? 0.0 : (target - cum) / static_cast<double>(counts_[i]);
      return bin_lo(i) + in_bin * (bin_hi(i) - bin_lo(i));
    }
    cum = next;
  }
  return hi_;
}

std::string Histogram::to_string(std::size_t max_width) const {
  u64 peak = 1;
  for (const u64 c : counts_) {
    peak = std::max(peak, c);
  }
  std::ostringstream oss;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto width =
        static_cast<std::size_t>(static_cast<double>(counts_[i]) /
                                 static_cast<double>(peak) * static_cast<double>(max_width));
    oss << "[" << bin_lo(i) << ", " << bin_hi(i) << ") " << std::string(width, '#') << " "
        << counts_[i] << "\n";
  }
  return oss.str();
}

}  // namespace mp3d
