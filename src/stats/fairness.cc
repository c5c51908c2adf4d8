#include "stats/fairness.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
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

FairnessTriangle all_pairs_fairness(const ServiceRecorder& rec,
                                    std::span<const FlowId> flows,
                                    std::span<const double> rates) {
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  const std::size_t n = flows.size();
  if (rates.size() != n)
    throw std::invalid_argument("all_pairs_fairness: one rate per flow");
  std::vector<FlowId> sorted(flows.begin(), flows.end());
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    throw std::invalid_argument("all_pairs_fairness: repeated flow");

  // Listed position of every flow that was served (only those take steps).
  std::vector<uint32_t> index;
  std::vector<const std::vector<ServiceRecorder::Interval>*> ivs(n);
  for (uint32_t u = 0; u < n; ++u) {
    if (!rec.flow_transmissions(flows[u]).empty()) {
      if (flows[u] >= index.size()) index.resize(flows[u] + 1, kNone);
      index[flows[u]] = u;
    }
    ivs[u] = &rec.backlog_intervals(flows[u]);
  }

  // Kadane state of pair (i, j), i < j, in the window of their intervals
  // `key` = (x_i, x_j): +l/r_i for i's packets, -l/r_j for j's, as
  // empirical_fairness(i, j) scans them. H takes the max of every run sum
  // as it goes, which equals folding each window's best at its end (max is
  // exact and the bests start at 0, like H).
  struct alignas(32) Pair {
    double run_hi = 0.0, run_lo = 0.0, h = 0.0;
    uint64_t key = ~uint64_t{0};
  };
  FairnessTriangle out{n, std::vector<double>(n * (n - 1) / 2)};
  std::vector<Pair> pairs(out.h.size());

  // Interval begins of the listed flows in time order (stable: a flow's
  // later interval stays after its earlier one on a tie).
  struct Begin {
    Time t;
    uint32_t u, x;
  };
  std::vector<Begin> begins;
  for (uint32_t u = 0; u < n; ++u)
    for (uint32_t x = 0; x < ivs[u]->size(); ++x)
      begins.push_back({(*ivs[u])[x].begin, u, x});
  std::stable_sort(
      begins.begin(), begins.end(),
      [](const Begin& a, const Begin& b) { return a.t < b.t; });

  // Each listed flow's current interval, and a bitmap of the flows whose
  // current interval has begun and, as far as checked, not ended.
  struct Current {
    Time end = 0.0;
    uint64_t x = 0;
  };
  std::vector<Current> cur(n);
  std::vector<uint64_t> active((n + 63) / 64, 0);
  std::size_t next = 0;
  for (const auto& t : rec.transmissions()) {
    for (; next < begins.size() && begins[next].t <= t.start; ++next) {
      const Begin& b = begins[next];
      cur[b.u] = {(*ivs[b.u])[b.x].end, b.x};
      active[b.u / 64] |= uint64_t{1} << b.u % 64;
    }
    const uint32_t g = t.flow < index.size() ? index[t.flow] : kNone;
    if (g == kNone || !(active[g / 64] >> g % 64 & 1) || cur[g].end < t.end)
      continue;
    const double v = t.bits / rates[g];
    // One Kadane step by s of pair (i, j), i < j, where m is g's partner;
    // none when m's interval is over, which drops m from `active`.
    auto step = [&](uint32_t m, std::size_t i, std::size_t j, double s) {
      if (cur[m].end < t.end) {
        active[m / 64] &= ~(uint64_t{1} << m % 64);
        return;
      }
      Pair& q = pairs[out.index(i, j)];
      const uint64_t key = cur[i].x << 32 | cur[j].x;
      // A new co-backlogged window restarts the run from zeros; as a mask,
      // that is no hard-to-predict branch.
      const uint64_t keep = q.key == key ? ~uint64_t{0} : 0;
      q.key = key;
      auto kept = [keep](double x) {
        return std::bit_cast<double>(std::bit_cast<uint64_t>(x) & keep);
      };
      q.run_hi = std::max(kept(q.run_hi) + s, s);
      q.run_lo = std::min(kept(q.run_lo) + s, s);
      q.h = std::max({q.h, q.run_hi, -q.run_lo});
    };
    // Partners below g (g's packet counts negative), then above it.
    const std::size_t gw = g / 64;
    for (std::size_t w = 0; w <= gw; ++w) {
      uint64_t bits = active[w];
      if (w == gw) bits &= (uint64_t{1} << g % 64) - 1;
      for (; bits; bits &= bits - 1) {
        const auto m = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        step(m, m, g, -v);
      }
    }
    for (std::size_t w = gw; w < active.size(); ++w) {
      uint64_t bits = active[w];
      if (w == gw) bits &= ~((uint64_t{2} << g % 64) - 1);
      for (; bits; bits &= bits - 1) {
        const auto m = static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
        step(m, g, m, v);
      }
    }
  }
  for (std::size_t p = 0; p < pairs.size(); ++p) out.h[p] = pairs[p].h;
  return out;
}

WindowFairness window_fairness(std::span<const double> start,
                               std::span<const double> end,
                               std::span<const double> rates,
                               std::span<const double> max_bits) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double lo = kInf, hi = -kInf;  // extremes of W_f / r_f
  double top = -kInf, next = -kInf;  // two largest l_f / r_f
  for (std::size_t f = 0; f < end.size(); ++f) {
    const double w = end[f] - start[f];
    if (w <= 0.0) continue;
    const double x = w / rates[f];
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    const double a = max_bits[f] / rates[f];
    if (a > top) {
      next = top;
      top = a;
    } else if (a > next) {
      next = a;
    }
  }
  // The pair loop starts both maxima at 0. With fewer than two served flows
  // a difference or sum below involves an infinity and is -inf or 0, so the
  // clamp also yields the pair loop's 0 there.
  return {std::max(0.0, hi - lo), std::max(0.0, top + next)};
}

}  // namespace sfq::stats
