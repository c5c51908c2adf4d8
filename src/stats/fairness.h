#pragma once

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
// O(n_f + n_m + I) per pair, O(F*N + F*I) over all pairs of F flows, for N
// transmissions and I backlog intervals.
double empirical_fairness(const ServiceRecorder& rec, FlowId f, double rf,
                          FlowId m, double rm);

// Theoretical SFQ/SCFQ fairness bound of Theorem 1:
// l_f^max/r_f + l_m^max/r_m.
inline double sfq_fairness_bound(double lf_max, double rf, double lm_max,
                                 double rm) {
  return lf_max / rf + lm_max / rm;
}

// Lower bound on H(f,m) for any packet algorithm (Golestani, cited in §1.2).
inline double fairness_lower_bound(double lf_max, double rf, double lm_max,
                                   double rm) {
  return 0.5 * (lf_max / rf + lm_max / rm);
}

}  // namespace sfq::stats
