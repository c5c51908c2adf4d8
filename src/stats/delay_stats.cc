#include "stats/delay_stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sfq::stats {

void DelayStats::ensure(FlowId f) {
  if (f >= samples_.size()) samples_.resize(f + 1);
}

void DelayStats::add(FlowId f, Time delay) {
  ensure(f);
  samples_[f].push_back(delay);
}

uint64_t DelayStats::count(FlowId f) const {
  return f < samples_.size() ? samples_[f].size() : 0;
}

double DelayStats::mean(FlowId f) const {
  if (count(f) == 0) return 0.0;
  double s = 0.0;
  for (Time d : samples_[f]) s += d;
  return s / static_cast<double>(samples_[f].size());
}

Time DelayStats::max(FlowId f) const {
  if (count(f) == 0) return 0.0;
  return *std::max_element(samples_[f].begin(), samples_[f].end());
}

Time DelayStats::percentile(FlowId f, double p) const {
  if (count(f) == 0) return 0.0;
  std::vector<Time> v = samples_[f];
  const double idx = (p / 100.0) * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  const double frac = idx - static_cast<double>(lo);
  // The lo-th and (lo+1)-th order statistics, without a full sort: after
  // nth_element nothing behind v[lo] is smaller, so the next one is the
  // minimum of the rest.
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), nth, v.end());
  const Time next =
      nth + 1 < v.end() ? *std::min_element(nth + 1, v.end()) : *nth;
  return *nth * (1.0 - frac) + next * frac;
}

double DelayStats::mean_over(const std::vector<FlowId>& fs) const {
  double s = 0.0;
  uint64_t n = 0;
  for (FlowId f : fs) {
    if (f < samples_.size()) {
      for (Time d : samples_[f]) s += d;
      n += samples_[f].size();
    }
  }
  return n == 0 ? 0.0 : s / static_cast<double>(n);
}

Time DelayStats::max_over(const std::vector<FlowId>& fs) const {
  Time m = 0.0;
  for (FlowId f : fs) m = std::max(m, max(f));
  return m;
}

}  // namespace sfq::stats
