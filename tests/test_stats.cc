#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "stats/delay_stats.h"
#include "stats/fairness.h"
#include "stats/service_recorder.h"
#include "stats/time_series.h"

namespace sfq::stats {
namespace {

// --- ServiceRecorder ---------------------------------------------------------

TEST(ServiceRecorder, ServedBitsCountsWholePacketsOnly) {
  ServiceRecorder rec;
  rec.on_arrival(0, 0.0);
  rec.on_arrival(0, 0.0);
  rec.on_service(0, 10.0, 0.0, 0.0, 1.0);
  rec.on_service(0, 10.0, 0.0, 1.0, 2.0);
  rec.finish(2.0);
  // W(t1,t2) requires start >= t1 AND end <= t2 (paper §1.2).
  EXPECT_DOUBLE_EQ(rec.served_bits(0, 0.0, 2.0), 20.0);
  EXPECT_DOUBLE_EQ(rec.served_bits(0, 0.5, 2.0), 10.0);  // first straddles t1
  EXPECT_DOUBLE_EQ(rec.served_bits(0, 0.0, 1.5), 10.0);  // second straddles t2
  EXPECT_DOUBLE_EQ(rec.served_bits(0, 0.5, 1.5), 0.0);
}

TEST(ServiceRecorder, BacklogIntervalsOpenAndClose) {
  ServiceRecorder rec;
  rec.on_arrival(0, 1.0);
  rec.on_service(0, 5.0, 1.0, 1.0, 2.0);
  rec.on_arrival(0, 4.0);
  rec.on_arrival(0, 4.5);
  rec.on_service(0, 5.0, 4.0, 4.5, 5.0);
  rec.on_service(0, 5.0, 4.5, 5.0, 6.0);
  rec.finish(10.0);
  const auto& iv = rec.backlog_intervals(0);
  ASSERT_EQ(iv.size(), 2u);
  EXPECT_DOUBLE_EQ(iv[0].begin, 1.0);
  EXPECT_DOUBLE_EQ(iv[0].end, 2.0);
  EXPECT_DOUBLE_EQ(iv[1].begin, 4.0);
  EXPECT_DOUBLE_EQ(iv[1].end, 6.0);
  EXPECT_TRUE(rec.backlogged_throughout(0, 4.2, 5.8));
  EXPECT_FALSE(rec.backlogged_throughout(0, 1.5, 4.2));
}

TEST(ServiceRecorder, FinishClosesOpenIntervals) {
  ServiceRecorder rec;
  rec.on_arrival(3, 2.0);
  rec.finish(9.0);
  const auto& iv = rec.backlog_intervals(3);
  ASSERT_EQ(iv.size(), 1u);
  EXPECT_DOUBLE_EQ(iv[0].end, 9.0);
}

TEST(ServiceRecorder, ServiceWithoutArrivalThrows) {
  ServiceRecorder rec;
  EXPECT_THROW(rec.on_service(0, 1.0, 0.0, 0.0, 1.0), std::logic_error);
}

// One server: a transmission may not start before the previous one ended,
// nor end before it starts. Back to back is fine.
TEST(ServiceRecorder, ServiceOutOfOrderThrows) {
  ServiceRecorder rec;
  for (int i = 0; i < 4; ++i) rec.on_arrival(i % 2, 0.0);
  rec.on_service(0, 1.0, 0.0, 0.0, 1.0);
  EXPECT_THROW(rec.on_service(1, 1.0, 0.0, 0.5, 1.5), std::logic_error);
  EXPECT_THROW(rec.on_service(1, 1.0, 0.0, 2.0, 1.5), std::logic_error);
  rec.on_service(1, 1.0, 0.0, 1.0, 2.0);
  EXPECT_EQ(rec.transmissions().size(), 2u);
  EXPECT_EQ(rec.served_packets(1), 1u);
}

// --- empirical_fairness --------------------------------------------------------

// Hand-built record: alternating unit packets => perfectly fair.
TEST(Fairness, AlternatingServiceIsNearFair) {
  ServiceRecorder rec;
  rec.on_arrival(0, 0.0);
  rec.on_arrival(1, 0.0);
  Time t = 0.0;
  for (int i = 0; i < 10; ++i) {
    rec.on_arrival(i % 2, t);
    rec.on_service(i % 2, 1.0, 0.0, t, t + 1.0);
    t += 1.0;
  }
  rec.on_service(0, 1.0, 0.0, t, t + 1.0);
  rec.on_service(1, 1.0, 0.0, t + 1.0, t + 2.0);
  rec.finish(t + 2.0);
  const double h = empirical_fairness(rec, 0, 1.0, 1, 1.0);
  EXPECT_LE(h, 1.0 + 1e-12);  // at most one packet of imbalance
  EXPECT_GT(h, 0.0);
}

// A long one-sided run inside a co-backlogged window is found by the scan.
TEST(Fairness, DetectsOneSidedRun) {
  ServiceRecorder rec;
  rec.on_arrival(0, 0.0);
  rec.on_arrival(1, 0.0);
  Time t = 0.0;
  for (int i = 0; i < 5; ++i) {
    rec.on_arrival(0, t);
    rec.on_service(0, 1.0, 0.0, t, t + 1.0);
    t += 1.0;
  }
  rec.on_service(0, 1.0, 0.0, t, t + 1.0);
  rec.on_service(1, 1.0, 0.0, t + 1.0, t + 2.0);
  rec.finish(t + 2.0);
  const double h = empirical_fairness(rec, 0, 1.0, 1, 1.0);
  EXPECT_NEAR(h, 6.0, 1e-12);  // six flow-0 packets before flow 1 got one
}

TEST(Fairness, IgnoresServiceOutsideCoBackloggedWindows) {
  ServiceRecorder rec;
  // Flow 0 served alone (flow 1 idle): not unfair by definition.
  rec.on_arrival(0, 0.0);
  for (int i = 0; i < 4; ++i) {
    rec.on_arrival(0, static_cast<Time>(i));
    rec.on_service(0, 1.0, 0.0, i, i + 1.0);
  }
  rec.on_service(0, 1.0, 0.0, 4.0, 5.0);
  // Flow 1 becomes backlogged only at t=10, served immediately.
  rec.on_arrival(1, 10.0);
  rec.on_service(1, 1.0, 10.0, 10.0, 11.0);
  rec.finish(11.0);
  const double h = empirical_fairness(rec, 0, 1.0, 1, 1.0);
  EXPECT_DOUBLE_EQ(h, 0.0);
}

TEST(Fairness, WeightsNormalizeService) {
  ServiceRecorder rec;
  rec.on_arrival(0, 0.0);
  rec.on_arrival(1, 0.0);
  // Flow 1 has weight 3 and receives 3 packets for each of flow 0's: fair.
  Time t = 0.0;
  for (int round = 0; round < 4; ++round) {
    rec.on_arrival(0, t);
    rec.on_service(0, 1.0, 0.0, t, t + 1.0);
    t += 1.0;
    for (int k = 0; k < 3; ++k) {
      rec.on_arrival(1, t);
      rec.on_service(1, 1.0, 0.0, t, t + 1.0);
      t += 1.0;
    }
  }
  rec.on_service(0, 1.0, 0.0, t, t + 1.0);
  rec.on_service(1, 1.0, 0.0, t + 1.0, t + 2.0);
  rec.finish(t + 2.0);
  const double h = empirical_fairness(rec, 0, 1.0, 1, 3.0);
  EXPECT_LE(h, 1.0 + 1.0 / 3.0 + 1e-12);
}

// --- Differential: indexed scan vs the full-sequence Kadane --------------------

// A seeded single-server record: 3-6 flows with unequal packet sizes, a
// discipline that picks a random backlogged flow (so runs get one-sided),
// arrivals during other flows' transmissions (windows open mid-packet),
// idle gaps with and without backlog, and flows still queued at the end.
struct RandomRecord {
  ServiceRecorder rec;
  std::vector<double> weight;
};

RandomRecord random_record(uint64_t seed, int packets) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  RandomRecord r;
  const int flows = 3 + static_cast<int>(rng() % 4);
  std::vector<double> size(flows);
  for (int f = 0; f < flows; ++f) {
    r.weight.push_back(0.25 + 4.0 * u(rng));
    size[f] = 8.0 * (64 + static_cast<int>(rng() % 1437));
  }
  std::vector<int> queued(flows, 0);
  auto arrive = [&](int f, Time t) {
    r.rec.on_arrival(f, t);
    ++queued[f];
  };
  Time t = 0.0;
  for (int n = 0; n < packets; ++n) {
    std::vector<int> ready;
    for (int f = 0; f < flows; ++f)
      if (queued[f] > 0) ready.push_back(f);
    if (ready.empty() || u(rng) < 0.05) {
      t += 1e-3 * u(rng);  // idle gap
      const int f = static_cast<int>(rng() % flows);
      arrive(f, t);
      if (ready.empty()) ready.push_back(f);
    }
    const int g = ready[rng() % ready.size()];
    const double bits = size[g] * (0.5 + 0.5 * u(rng));
    const Time start = t, end = start + bits / 1e6;
    for (int f = 0; f < flows; ++f) {
      const double p = u(rng);
      if (p < 0.15) arrive(f, start + (end - start) * u(rng));
      else if (p < 0.2) arrive(f, start);
    }
    r.rec.on_service(g, bits, start, start, end);
    --queued[g];
    t = end;
  }
  r.rec.finish(t);
  return r;
}

// The original O(N) scan: Kadane over every transmission of the record
// inside each co-backlogged window, 0 for other flows' packets.
double full_scan_fairness(const ServiceRecorder& rec, FlowId f, double rf,
                          FlowId m, double rm) {
  const auto& a = rec.backlog_intervals(f);
  const auto& b = rec.backlog_intervals(m);
  std::vector<ServiceRecorder::Interval> windows;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    const Time lo = std::max(a[i].begin, b[j].begin);
    const Time hi = std::min(a[i].end, b[j].end);
    if (hi > lo) windows.push_back({lo, hi});
    if (a[i].end < b[j].end) ++i; else ++j;
  }
  const auto& tx = rec.transmissions();
  double h = 0.0;
  std::size_t k = 0;
  for (const auto& w : windows) {
    while (k < tx.size() && tx[k].start < w.begin) ++k;
    double best_hi = 0.0, run_hi = 0.0;
    double best_lo = 0.0, run_lo = 0.0;
    for (std::size_t i = k; i < tx.size() && tx[i].end <= w.end; ++i) {
      double v = 0.0;
      if (tx[i].flow == f) v = tx[i].bits / rf;
      else if (tx[i].flow == m) v = -tx[i].bits / rm;
      run_hi = std::max(run_hi + v, v);
      best_hi = std::max(best_hi, run_hi);
      run_lo = std::min(run_lo + v, v);
      best_lo = std::min(best_lo, run_lo);
    }
    h = std::max({h, best_hi, -best_lo});
  }
  return h;
}

// The §1.2 definition by brute force: every [t1, t2] with t1 a packet start
// and t2 a packet end, both flows backlogged throughout, whole packets only.
double brute_force_fairness(const ServiceRecorder& rec, FlowId f, double rf,
                            FlowId m, double rm) {
  const auto& tx = rec.transmissions();
  double h = 0.0;
  for (const auto& first : tx)
    for (const auto& last : tx) {
      const Time t1 = first.start, t2 = last.end;
      if (t2 <= t1 || !rec.backlogged_throughout(f, t1, t2) ||
          !rec.backlogged_throughout(m, t1, t2))
        continue;
      double wf = 0.0, wm = 0.0;
      for (const auto& x : tx)
        if (x.start >= t1 && x.end <= t2) {
          if (x.flow == f) wf += x.bits;
          if (x.flow == m) wm += x.bits;
        }
      h = std::max(h, std::abs(wf / rf - wm / rm));
    }
  return h;
}

TEST(Fairness, IndexedScanIsBitEqualToFullScan) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomRecord r = random_record(seed, 600);
    const FlowId flows = static_cast<FlowId>(r.weight.size());
    for (FlowId f = 0; f <= flows; ++f)  // flow id `flows` never sent
      for (FlowId m = 0; m <= flows; ++m) {
        const double rf = f < flows ? r.weight[f] : 1.0;
        const double rm = m < flows ? r.weight[m] : 1.0;
        EXPECT_EQ(empirical_fairness(r.rec, f, rf, m, rm),
                  full_scan_fairness(r.rec, f, rf, m, rm))
            << "seed " << seed << " pair " << f << "," << m;
      }
  }
}

TEST(Fairness, IndexedScanMatchesTheDefinition) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const RandomRecord r = random_record(seed, 120);
    const FlowId flows = static_cast<FlowId>(r.weight.size());
    for (FlowId f = 0; f < flows; ++f)
      for (FlowId m = f + 1; m < flows; ++m) {
        const double h = empirical_fairness(r.rec, f, r.weight[f], m, r.weight[m]);
        EXPECT_NEAR(h, brute_force_fairness(r.rec, f, r.weight[f], m, r.weight[m]),
                    1e-9 * std::max(1.0, h))
            << "seed " << seed << " pair " << f << "," << m;
      }
  }
}

// The one-pass all-pairs table equals the single-pair scan, bit for bit, in
// both orientations. The listed flows are a shuffled subset: ids do not match
// positions, one sending flow is left out (its packets are third-party
// traffic), and one listed flow never sent anything.
TEST(Fairness, AllPairsIsBitEqualToPerPair) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    const RandomRecord r = random_record(seed, 600);
    const FlowId sent = static_cast<FlowId>(r.weight.size());
    std::mt19937_64 rng(seed);
    std::vector<FlowId> flows;
    for (FlowId f = 0; f < sent; ++f) flows.push_back(f);
    std::shuffle(flows.begin(), flows.end(), rng);
    flows.pop_back();
    flows.insert(flows.begin() + static_cast<std::ptrdiff_t>(rng() % flows.size()),
                 sent + 2);
    std::vector<double> rates;
    for (FlowId f : flows) rates.push_back(f < sent ? r.weight[f] : 1.5);
    const FairnessTriangle t = all_pairs_fairness(r.rec, flows, rates);
    ASSERT_EQ(t.flows, flows.size());
    ASSERT_EQ(t.h.size(), flows.size() * (flows.size() - 1) / 2);
    for (std::size_t i = 0; i < flows.size(); ++i)
      for (std::size_t j = i + 1; j < flows.size(); ++j) {
        EXPECT_EQ(t.at(i, j), empirical_fairness(r.rec, flows[i], rates[i],
                                                 flows[j], rates[j]))
            << "seed " << seed << " pair " << flows[i] << "," << flows[j];
        EXPECT_EQ(t.at(i, j), empirical_fairness(r.rec, flows[j], rates[j],
                                                 flows[i], rates[i]))
            << "seed " << seed << " pair " << flows[j] << "," << flows[i];
      }
  }
}

TEST(Fairness, AllPairsRejectsRepeatedFlowsAndMismatchedRates) {
  const RandomRecord r = random_record(3, 100);
  const std::vector<FlowId> twice = {0, 2, 1, 2};
  const std::vector<double> four = {1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(all_pairs_fairness(r.rec, twice, four), std::invalid_argument);
  const std::vector<FlowId> three = {0, 1, 2};
  EXPECT_THROW(all_pairs_fairness(r.rec, three, four), std::invalid_argument);
  EXPECT_TRUE(all_pairs_fairness(r.rec, {}, {}).h.empty());
}

// Per-flow queries answered from the index equal the full walks, bit for bit.
TEST(ServiceRecorder, IndexedQueriesMatchFullWalk) {
  const RandomRecord r = random_record(7, 600);
  const auto& tx = r.rec.transmissions();
  std::uniform_real_distribution<double> u(0.0, tx.back().end);
  std::mt19937_64 rng(7);
  for (FlowId f = 0; f <= r.weight.size(); ++f) {
    double all = 0.0;
    uint64_t n = 0;
    for (const auto& x : tx)
      if (x.flow == f) all += x.bits, ++n;
    EXPECT_EQ(r.rec.served_bits(f), all);
    EXPECT_EQ(r.rec.served_packets(f), n);
    for (int q = 0; q < 50; ++q) {
      Time t1 = u(rng), t2 = u(rng);
      if (t2 < t1) std::swap(t1, t2);
      if (q % 5 == 0) t1 = tx[rng() % tx.size()].start;  // on packet edges
      if (q % 5 == 1) t2 = tx[rng() % tx.size()].end;
      double w = 0.0;
      for (const auto& x : tx)
        if (x.flow == f && x.start >= t1 && x.end <= t2) w += x.bits;
      EXPECT_EQ(r.rec.served_bits(f, t1, t2), w) << f << " " << t1 << " " << t2;
    }
  }
}

// The pair loop the rt engine's live monitor ran before window_fairness.
WindowFairness window_fairness_pairwise(const std::vector<double>& start,
                                        const std::vector<double>& end,
                                        const std::vector<double>& rates,
                                        const std::vector<double>& max_bits) {
  WindowFairness out;
  for (std::size_t f = 0; f < end.size(); ++f) {
    const double df = end[f] - start[f];
    if (df <= 0.0) continue;
    for (std::size_t m = f + 1; m < end.size(); ++m) {
      const double dm = end[m] - start[m];
      if (dm <= 0.0) continue;
      const double g = std::abs(df / rates[f] - dm / rates[m]);
      const double b =
          sfq_fairness_bound(max_bits[f], rates[f], max_bits[m], rates[m]);
      if (g > out.gap) out.gap = g;
      if (b > out.bound) out.bound = b;
    }
  }
  return out;
}

// The one-pass monitor equals the pair loop bit for bit: random service
// with ties and idle flows, and windows with exactly 0, 1 and 2 served flows.
TEST(Fairness, WindowFairnessIsBitEqualToThePairLoop) {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  auto pick = [&](std::initializer_list<double> tied) {
    if (u(rng) < 0.5) return 1e3 + 1e6 * u(rng);
    return *(tied.begin() + rng() % tied.size());
  };
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = trial % 7 == 0 ? 0 : 1 + rng() % 40;
    // Served flows in this window: all, none, exactly one or exactly two.
    const int mode = trial % 4;
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::shuffle(order.begin(), order.end(), rng);
    std::vector<char> served(n, 0);
    for (std::size_t k = 0; k < n; ++k)
      served[order[k]] = mode == 0   ? u(rng) < 0.7
                         : mode == 1 ? 0
                                     : k < static_cast<std::size_t>(mode - 1);
    std::vector<double> start(n), end(n), rates(n), max_bits(n);
    for (std::size_t f = 0; f < n; ++f) {
      start[f] = 1e9 * u(rng);
      end[f] = served[f] ? start[f] + pick({1500.0, 12000.0, 3.0e4}) : start[f];
      rates[f] = pick({1e6, 2e6, 5e5});
      max_bits[f] = pick({12000.0, 512.0, 0.0});
    }
    const WindowFairness ref = window_fairness_pairwise(start, end, rates, max_bits);
    const WindowFairness got = window_fairness(start, end, rates, max_bits);
    EXPECT_EQ(got.gap, ref.gap) << "trial " << trial;
    EXPECT_EQ(got.bound, ref.bound) << "trial " << trial;
  }
  // Fewer than two served flows: both figures are 0.
  const std::vector<double> zero = {0.0, 0.0}, one = {0.0, 5.0};
  const std::vector<double> r = {1.0, 2.0}, l = {10.0, 20.0};
  EXPECT_EQ(window_fairness(zero, zero, r, l).gap, 0.0);
  EXPECT_EQ(window_fairness(zero, zero, r, l).bound, 0.0);
  EXPECT_EQ(window_fairness(zero, one, r, l).gap, 0.0);
  EXPECT_EQ(window_fairness(zero, one, r, l).bound, 0.0);
  EXPECT_EQ(window_fairness({}, {}, {}, {}).bound, 0.0);
}

TEST(Fairness, BoundsHelpers) {
  EXPECT_DOUBLE_EQ(sfq_fairness_bound(10, 5, 20, 4), 2.0 + 5.0);
  EXPECT_DOUBLE_EQ(fairness_lower_bound(10, 5, 20, 4), 3.5);
}

// --- DelayStats -----------------------------------------------------------------

TEST(DelayStats, MeanMaxPercentile) {
  DelayStats d;
  for (int i = 1; i <= 100; ++i) d.add(0, i * 0.01);
  EXPECT_EQ(d.count(0), 100u);
  EXPECT_NEAR(d.mean(0), 0.505, 1e-9);
  EXPECT_DOUBLE_EQ(d.max(0), 1.0);
  EXPECT_NEAR(d.percentile(0, 50), 0.505, 0.01);
  EXPECT_NEAR(d.percentile(0, 99), 1.0, 0.011);
}

// percentile() selects the two order statistics it interpolates between;
// the result equals interpolating in the fully sorted samples, bit for bit.
TEST(DelayStats, PercentileMatchesSortedReference) {
  auto sorted_percentile = [](std::vector<Time> v, double p) {
    std::sort(v.begin(), v.end());
    const double idx = (p / 100.0) * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = idx - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
  };
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (const std::size_t n : {1u, 2u, 1000u}) {
    for (const bool ties : {false, true}) {
      DelayStats d;
      std::vector<Time> v;
      for (std::size_t k = 0; k < n; ++k) {
        // With ties: five distinct values, each repeated many times.
        const Time x = ties ? 1e-3 * static_cast<double>(rng() % 5) : u(rng);
        d.add(4, x);
        v.push_back(x);
      }
      for (int k = 0; k <= 200; ++k) {  // p = 0, 0.5, ..., 50, ..., 99, 100
        const double p = 0.5 * k;
        EXPECT_EQ(d.percentile(4, p), sorted_percentile(v, p))
            << n << " samples, ties " << ties << ", p " << p;
      }
    }
  }
}

TEST(DelayStats, AggregatesOverFlows) {
  DelayStats d;
  d.add(0, 1.0);
  d.add(1, 3.0);
  EXPECT_DOUBLE_EQ(d.mean_over({0, 1}), 2.0);
  EXPECT_DOUBLE_EQ(d.max_over({0, 1}), 3.0);
  EXPECT_DOUBLE_EQ(d.mean_over({2}), 0.0);
}

// --- TimeSeries ------------------------------------------------------------------

TEST(TimeSeries, BucketsAndCumulative) {
  TimeSeries ts(1.0);
  ts.add(0, 0.5, 1.0);
  ts.add(0, 1.5, 1.0);
  ts.add(0, 1.7, 1.0);
  ts.add(0, 3.2, 1.0);
  const auto sums = ts.bucket_sums(0, 4.0);
  ASSERT_EQ(sums.size(), 4u);
  EXPECT_DOUBLE_EQ(sums[0], 1.0);
  EXPECT_DOUBLE_EQ(sums[1], 2.0);
  EXPECT_DOUBLE_EQ(sums[2], 0.0);
  EXPECT_DOUBLE_EQ(sums[3], 1.0);
  const auto cum = ts.cumulative(0, 4.0);
  EXPECT_DOUBLE_EQ(cum[3], 4.0);
}

TEST(TimeSeries, UnknownFlowGivesZeros) {
  TimeSeries ts(1.0);
  const auto sums = ts.bucket_sums(7, 2.0);
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_DOUBLE_EQ(sums[0], 0.0);
}

}  // namespace
}  // namespace sfq::stats
