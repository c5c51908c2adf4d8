// The four benchmark workloads. Each runs repetitions until
// Options::seconds have passed (at least kMinReps), checks every output and
// fills a Report: end-to-end metrics untraced, per-layer metrics traced.
#pragma once

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

inline constexpr int kMinReps = 3;

Report run_rt_blast(const Options& opt);
Report run_rt_paced_1m(const Options& opt);
Report run_rt_overload(const Options& opt);
Report run_sim_tandem(const Options& opt);

// Runs `run_rep(traced)` until the time budget is spent and both kinds have
// kMinReps repetitions; trace mode alternates untraced and traced
// repetitions so both see the same machine state. RepT has a `traced` flag.
template <typename RunRep>
auto repeat(const Options& opt, RunRep&& run_rep) {
  std::vector<decltype(run_rep(false))> reps;
  const double deadline = now_s() + opt.seconds;
  int untraced = 0, traced = 0;
  for (int k = 0; k < 400; ++k) {
    const bool t = opt.trace && (k % 2 == 1);
    reps.push_back(run_rep(t));
    (t ? traced : untraced)++;
    const bool enough =
        untraced >= kMinReps && (!opt.trace || traced >= kMinReps);
    if (enough && now_s() >= deadline) break;
  }
  return reps;
}

// Median of `field` over the repetitions with the given `traced` flag.
template <typename RepT, typename Field>
double med(const std::vector<RepT>& reps, bool traced, Field&& field) {
  std::vector<double> v;
  for (const RepT& r : reps)
    if (r.traced == traced) v.push_back(field(r));
  return median(std::move(v));
}

// "N untraced, M traced" for the repetitions note.
template <typename RepT>
std::string rep_counts(const std::vector<RepT>& reps) {
  std::size_t traced = 0;
  for (const RepT& r : reps) traced += r.traced ? 1 : 0;
  return std::to_string(reps.size() - traced) + " untraced, " +
         std::to_string(traced) + " traced";
}

}  // namespace perfbench
