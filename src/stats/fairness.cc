#include "stats/fairness.h"

#include <algorithm>
#include <vector>

namespace sfq::stats {

double empirical_fairness(const ServiceRecorder& rec, FlowId f, double rf,
                          FlowId m, double rm) {
  const auto& a = rec.backlog_intervals(f);
  const auto& b = rec.backlog_intervals(m);
  const auto& tx = rec.transmissions();
  static const std::vector<uint32_t> kNone;
  const auto& lf = rec.flow_transmissions(f);
  const auto& lm = f == m ? kNone : rec.flow_transmissions(m);

  double h = 0.0;
  std::size_t i = 0, j = 0;  // first f / m packet not starting before the window
  for (std::size_t x = 0, y = 0; x < a.size() && y < b.size();) {
    // Next co-backlogged window [lo, hi]: the overlap of a[x] and b[y].
    const Time lo = std::max(a[x].begin, b[y].begin);
    const Time hi = std::min(a[x].end, b[y].end);
    if (a[x].end < b[y].end) ++x; else ++y;
    if (!(hi > lo)) continue;
    // Transmissions fully inside the window are, per flow, the run from the
    // first start >= lo to the last end <= hi; merged by position they are
    // f's and m's packets in service order.
    while (i < lf.size() && tx[lf[i]].start < lo) ++i;
    while (j < lm.size() && tx[lm[j]].start < lo) ++j;
    // Kadane over signed normalized service, both signs.
    double best_hi = 0.0, run_hi = 0.0;  // max subarray sum
    double best_lo = 0.0, run_lo = 0.0;  // min subarray sum
    for (std::size_t p = i, q = j;;) {
      const bool pf = p < lf.size() && tx[lf[p]].end <= hi;
      const bool qm = q < lm.size() && tx[lm[q]].end <= hi;
      if (!pf && !qm) break;
      const double v = pf && (!qm || lf[p] < lm[q]) ? tx[lf[p++]].bits / rf
                                                    : -tx[lm[q++]].bits / rm;
      run_hi = std::max(run_hi + v, v);
      best_hi = std::max(best_hi, run_hi);
      run_lo = std::min(run_lo + v, v);
      best_lo = std::min(best_lo, run_lo);
    }
    h = std::max({h, best_hi, -best_lo});
  }
  return h;
}

}  // namespace sfq::stats
