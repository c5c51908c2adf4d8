// sim_tandem: config::run_experiment on a spec generated from the seed —
// SFQ on 3 hops of 100 Mb/s, 64 flows mixing CBR, Poisson and on-off
// sources with 64/576/1500-byte packets at 0.9 load.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "config/experiment.h"
#include "core/scheduler_factory.h"
#include "obs/trace.h"
#include "replays.h"
#include "stats/fairness.h"
#include "stats/service_recorder.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace config = sfq::config;

constexpr std::size_t kFlows = 64;
constexpr std::size_t kHops = 3;
constexpr double kLink = 100e6;
constexpr double kLoad = 0.9;
constexpr double kDuration = 2.0;  // simulated seconds per repetition
constexpr int kSetupTrials = 15;

config::ExperimentSpec make_spec(uint64_t seed) {
  std::mt19937_64 rng = rng_for(seed, 4);
  std::uniform_real_distribution<double> share(0.5, 1.5);
  config::ExperimentSpec spec;
  spec.scheduler = "SFQ";
  spec.duration = kDuration;
  for (std::size_t h = 0; h < kHops; ++h) {
    config::HopSpec hop;
    hop.rate = kLink;
    spec.hops.push_back(hop);
  }
  // Seeded shares, normalised within each packet-size class so every class
  // carries a third of the load: the packet count, and with it the run's
  // cost, then barely depends on the seed.
  static const char* kKinds[] = {"cbr", "poisson", "onoff"};
  static const double kBytes[] = {64, 576, 1500};
  auto size_class = [](std::size_t i) { return (i / 3) % 3; };
  std::vector<double> shares(kFlows);
  double class_total[3] = {0.0, 0.0, 0.0};
  for (std::size_t i = 0; i < kFlows; ++i) {
    shares[i] = share(rng);
    class_total[size_class(i)] += shares[i];
  }
  for (std::size_t i = 0; i < kFlows; ++i) {
    config::FlowSpec f;
    f.name = "f" + std::to_string(i);
    f.kind = kKinds[i % 3];
    f.packet = 8.0 * kBytes[size_class(i)];
    // Average offered rate.
    f.weight = kLoad * kLink / 3.0 * shares[i] / class_total[size_class(i)];
    // On-off sources send at their peak rate half of the time.
    f.rate = f.kind == "onoff" ? 2.0 * f.weight : f.weight;
    f.seed = rng();
    f.start = 0.0;
    spec.flows.push_back(f);
  }
  return spec;
}

// Rebuilds the first hop's ServiceRecorder from its trace events, so the
// stats layer can be replayed on the very run that produced it.
class RecorderSink final : public sfq::obs::TraceSink {
 public:
  void on_event(const sfq::obs::TraceEvent& e) override {
    using T = sfq::obs::TraceEventType;
    if (e.type == T::kEnqueue) rec.on_arrival(e.flow, e.t);
    else if (e.type == T::kTxStart) start_ = e.t;
    else if (e.type == T::kTxEnd)
      rec.on_service(e.flow, e.length_bits, e.arrival, start_, e.t);
  }
  sfq::stats::ServiceRecorder rec;

 private:
  sfq::Time start_ = 0.0;
};

// The pairwise Theorem-1 pass run_experiment makes at its end.
double worst_fairness(const sfq::stats::ServiceRecorder& rec,
                      const config::ExperimentSpec& spec) {
  double worst = 0.0;
  for (std::size_t i = 0; i < spec.flows.size(); ++i)
    for (std::size_t j = i + 1; j < spec.flows.size(); ++j) {
      const auto& a = spec.flows[i];
      const auto& b = spec.flows[j];
      const double h = sfq::stats::empirical_fairness(
          rec, sfq::FlowId(i), a.weight, sfq::FlowId(j), b.weight);
      worst = std::max(worst, h / sfq::stats::sfq_fairness_bound(
                                      a.packet, a.weight, b.packet, b.weight));
    }
  return worst;
}

struct SimRep {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  uint64_t delivered = 0;
  double delivered_bits = 0.0;
  double fairness_s = 0.0;  // traced: replayed pairwise pass
};

bool same_output(const config::ExperimentResult& a,
                 const config::ExperimentResult& b) {
  if (a.drops != b.drops || a.drop_causes != b.drop_causes ||
      a.worst_fairness_ratio != b.worst_fairness_ratio ||
      a.flows.size() != b.flows.size())
    return false;
  for (std::size_t i = 0; i < a.flows.size(); ++i)
    if (a.flows[i].packets_delivered != b.flows[i].packets_delivered)
      return false;
  return true;
}

// The deepest the simulator's event queue got on `spec`, read from the
// sim.max_pending_events gauge run_experiment publishes when metrics are on.
// The metrics file goes next to this program (inside its build tree) and
// is removed once read; 0 when the gauge could not be read.
double measured_event_depth(config::ExperimentSpec spec) {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return 0.0;
  const std::filesystem::path out = exe.parent_path() / "sim_tandem.metrics.json";
  spec.obs.metrics_json = out.string();
  const config::ExperimentResult res = config::run_experiment(spec);
  std::filesystem::remove(out, ec);
  const std::string key = "\"sim.max_pending_events\":";
  const std::size_t at = res.metrics_json.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(res.metrics_json.c_str() + at + key.size(), nullptr);
}

}  // namespace

Report run_sim_tandem(const Options& opt) {
  Report rep;
  const config::ExperimentSpec spec = make_spec(opt.seed);
  const std::string text = spec.serialize();
  std::optional<config::ExperimentResult> first;
  const std::vector<SimRep> reps = repeat(opt, [&](bool traced) {
    SimRep r;
    r.traced = traced;
    // Set-up as sfq_lab pays it: parse the config text and build the
    // discipline with its registered flows. It takes well under a
    // millisecond, so each repetition times kSetupTrials of them.
    std::optional<config::ExperimentSpec> parsed;
    std::vector<double> setups;
    for (int t = 0; t < kSetupTrials; ++t) {
      const double s0 = now_s();
      std::istringstream in(text);
      std::string err;
      parsed = config::ExperimentSpec::try_parse(in, &err);
      if (!parsed) {
        rep.fail("generated spec does not parse: " + err);
        parsed = spec;
      }
      sfq::SchedulerOptions so;
      so.assumed_capacity = parsed->link_rate();
      config::BuiltScheduler built =
          config::build_experiment_scheduler(*parsed, so);
      setups.push_back(now_s() - s0);
    }
    r.setup_s = median(std::move(setups));

    RecorderSink sink;
    const double w0 = now_s();
    const config::ExperimentResult res =
        config::run_experiment(*parsed, traced ? &sink : nullptr);
    r.wall_s = now_s() - w0;
    for (const auto& f : res.flows) {
      r.delivered += f.packets_delivered;
      r.delivered_bits += f.throughput * parsed->duration;
    }
    if (traced) {
      sink.rec.finish(parsed->duration);
      const double f0 = now_s();
      const double worst = worst_fairness(sink.rec, *parsed);
      r.fairness_s = now_s() - f0;
      if (worst != res.worst_fairness_ratio)
        rep.fail("replayed fairness pass " + std::to_string(worst) +
                 " != run_experiment's " + std::to_string(res.worst_fairness_ratio));
    }

    // Checks: output identical across repetitions of the seed, Theorem 1
    // at the first hop, no drops (unbounded buffers).
    rep.offered += r.delivered + res.drops;
    rep.failed_packets += res.drops;
    if (res.drops) rep.fail("sim dropped " + std::to_string(res.drops) + " packets");
    if (res.worst_fairness_ratio > 1.0)
      rep.fail("worst_fairness_ratio " + std::to_string(res.worst_fairness_ratio) + " > 1");
    if (!first) {
      first = res;
    } else {
      ++rep.repeats_compared;
      if (!same_output(*first, res)) {
        ++rep.repeats_differing;
        rep.fail("sim output differs between repetitions of one seed");
      }
    }
    return r;
  });

  auto hops_pps = [](const SimRep& r) { return kHops * r.delivered / r.wall_s; };
  if (!opt.trace) {
    rep.e2e("max_pps", med(reps, false, [](const SimRep& r) { return r.delivered / r.wall_s; }), "pkt/s");
    rep.e2e("lat_p50_us", med(reps, false, [](const SimRep& r) { return r.wall_s * 1e6; }), "us");
    rep.e2e("goodput_frac", med(reps, false, [](const SimRep& r) {
              return r.delivered_bits / (kLoad * kLink * kDuration);
            }), "frac");
    rep.e2e("sim_pps", med(reps, false, hops_pps), "pkt/s");
    rep.e2e("setup_s", med(reps, false, [](const SimRep& r) { return r.setup_s; }), "s");
  } else {
    const double pkt_hops = med(reps, true, [](const SimRep& r) { return double(kHops * r.delivered); });
    const double fairness_ns = med(reps, true, [](const SimRep& r) { return r.fairness_s; }) * 1e9 / pkt_hops;
    const double wall_ns = med(reps, false, [](const SimRep& r) { return r.wall_s; }) * 1e9 / pkt_hops;
    rep.layer("stats.fairness_ns_per_pkt", fairness_ns, "ns");
    rep.layer("sim.event_loop_ns_per_pkt", wall_ns - fairness_ns, "ns");
    rep.layer("sim.event_queue.cycle_ns", replay_event_queue_cycle_ns(1, opt.seed), "ns");
    // Replayed at the depth this spec drives the simulator's queue to, as
    // measured by an extra run with metrics on (outside the timed ones).
    const double depth = measured_event_depth(spec);
    if (depth < 1.0) rep.fail("sim.max_pending_events not in run_experiment's metrics");
    rep.layer("sim.event_queue.cycle_sim_depth_ns",
              replay_event_queue_cycle_ns(std::max<std::size_t>(1, std::size_t(depth)), opt.seed), "ns");
    rep.layer("trace.overhead_frac", 1.0 - med(reps, true, hops_pps) / med(reps, false, hops_pps), "frac");
    char line[256];
    std::snprintf(line, sizeof line,
                  "ledger per packet-hop (ns): event loop %.1f + fairness %.1f = %.1f;"
                  " event queue replayed at measured depth %.0f",
                  wall_ns - fairness_ns, fairness_ns, wall_ns, depth);
    rep.notes.push_back(line);
  }
  rep.notes.push_back("repetitions: " + rep_counts(reps));
  return rep;
}

}  // namespace perfbench
