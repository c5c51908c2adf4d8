#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/types.h"
#include "stats/service_recorder.h"

namespace sfq::stats {

// Empirical fairness measure between two flows (paper §1.2):
//
//   H_emp(f, m) = max over intervals [t1,t2] with both flows backlogged of
//                 | W_f(t1,t2)/r_f - W_m(t1,t2)/r_m |
//
// Because a single server transmits packets back to back, W over an interval
// is a sum over a *contiguous run* of the service-ordered transmission
// sequence; the maximum over all runs inside a co-backlogged window is a
// maximum-absolute-subarray-sum over per-packet values (+l/r_f for f's
// packets, -l/r_m for m's, 0 for others), solved exactly with Kadane's scan.
// A 0 step never changes the maxima Kadane reports, so the scan walks only
// the merge of f's and m's per-flow transmission lists, window by window:
// O(n_f + n_m + I) for one pair, for I backlog intervals.
double empirical_fairness(const ServiceRecorder& rec, FlowId f, double rf,
                          FlowId m, double rm);

// H for every pair i < j of a flow list, row-major upper triangle.
struct FairnessTriangle {
  std::size_t flows = 0;
  std::vector<double> h;  // flows * (flows - 1) / 2 entries
  std::size_t index(std::size_t i, std::size_t j) const {  // i < j < flows
    return i * (2 * flows - i - 1) / 2 + j - i - 1;
  }
  double at(std::size_t i, std::size_t j) const { return h[index(i, j)]; }
};

// empirical_fairness for every pair of `flows` (rates[i] is flows[i]'s), in
// one pass over the transmissions in service order. A listed flow is active
// while its current backlog interval covers the packet being served; each
// packet of an active flow g is one Kadane step of every pair (g, m) with m
// active, and a pair's run restarts when either flow's interval changes.
// Steps of different pairs are independent, and each pair sees exactly the
// values, in exactly the order, of its own scan, so every entry is
// bit-identical to empirical_fairness in either orientation (for records
// whose packets of nonzero length take nonzero time, as every server's do).
// O(N·(A + F/64) + I·log I + F²) for N transmissions, I backlog intervals of
// the F listed flows and A of them backlogged at once, against O(F·N + F·I)
// for the F²/2 single-pair scans. Throws std::invalid_argument on a repeated
// flow or a rate count that differs from the flow count.
FairnessTriangle all_pairs_fairness(const ServiceRecorder& rec,
                                    std::span<const FlowId> flows,
                                    std::span<const double> rates);

// Theoretical SFQ/SCFQ fairness bound of Theorem 1:
// l_f^max/r_f + l_m^max/r_m.
inline double sfq_fairness_bound(double lf_max, double rf, double lm_max,
                                 double rm) {
  return lf_max / rf + lm_max / rm;
}

// Live Theorem-1 monitor over one stats window: W_f = end[f] - start[f] is
// flow f's service in the window, and only flows with W_f > 0 count (both
// flows served is the online proxy for both backlogged). `gap` is the
// largest |W_f/r_f - W_m/r_m| and `bound` the largest
// sfq_fairness_bound(l_f, r_f, l_m, r_m) over pairs of served flows; both
// are 0 with fewer than two served flows. One O(F) pass: the gap is
// max - min of W_f/r_f and the bound the sum of the two largest l_f/r_f,
// bit-identical to the loop over every pair because IEEE subtraction and
// addition are monotone in each operand. All four spans have one entry per
// flow.
struct WindowFairness {
  double gap = 0.0;
  double bound = 0.0;
};
WindowFairness window_fairness(std::span<const double> start,
                               std::span<const double> end,
                               std::span<const double> rates,
                               std::span<const double> max_bits);

// Lower bound on H(f,m) for any packet algorithm (Golestani, cited in §1.2).
inline double fairness_lower_bound(double lf_max, double rf, double lm_max,
                                   double rm) {
  return 0.5 * (lf_max / rf + lm_max / rm);
}

}  // namespace sfq::stats
