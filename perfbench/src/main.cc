// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inject-enqueue-ns NS] [--inject-stall-ms MS]
//
// Runs one workload for S seconds of repetitions and prints, as its last
// stdout line, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced (--trace 0) or the per-layer metrics traced
// (--trace 1). Exits 1 when any output check failed. perfbench/run.py
// builds it and is the command to call; README.md there lists the metrics.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Name {
  const char* name;
  const char* unit;
};

// Every workload reports every name; a layer that is not on a workload's
// path reads 0 and is listed as n/a.
constexpr Name kEndToEnd[] = {
    {"max_pps", "pkt/s"}, {"lat_p50_us", "us"}, {"goodput_frac", "frac"},
    {"sim_pps", "pkt/s"}, {"setup_s", "s"},     {"rss_mb", "MB"},
};
constexpr Name kPerLayer[] = {
    {"rt.ingress.offer_ns", "ns"},
    {"rt.ingress.pop_ns", "ns"},
    {"rt.ingress.backpressure_per_kpkt", "count"},
    {"rt.ingress.dwell_p50_us", "us"},
    {"core.sched.enqueue_ns", "ns"},
    {"core.sched.dequeue_ns", "ns"},
    {"core.sched.complete_ns", "ns"},
    {"core.sched.backlog_mean", "pkt"},
    {"core.flow_table.active_ns", "ns"},
    {"net.rate_profile.finish_ns", "ns"},
    {"sim.event_queue.cycle_ns", "ns"},
    {"sim.event_queue.cycle_sim_depth_ns", "ns"},
    {"sim.event_loop_ns_per_pkt", "ns"},
    {"stats.fairness_ns_per_pkt", "ns"},
    {"obs.telemetry.record_ns", "ns"},
    {"obs.telemetry.inc_ns", "ns"},
    {"rt.shard.route_ns", "ns"},
    {"rt.shard.tx_share_err", "frac"},
    {"rt.engine.dispatch_ns_per_pkt", "ns"},
    {"rt.engine.layers_ns_per_pkt", "ns"},
    {"rt.engine.residual_ns", "ns"},
    {"rt.engine.cpu_frac", "frac"},
    {"rt.engine.lat_p99_us", "us"},
    {"rt.engine.service_lag_max_us", "us"},
    {"rt.engine.shed_frac", "frac"},
    {"rt.engine.pushout_frac", "frac"},
    {"rt.engine.shedding_time_frac", "frac"},
    {"gen.late_p99_us", "us"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rt_blast|rt_paced_1m|rt_overload|sim_tandem --seed N "
               "--seconds S --trace 0|1 [--inject-enqueue-ns NS] "
               "[--inject-stall-ms MS]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      o.trace = std::strtol(v, &end, 10) != 0;
    } else if (a == "--inject-enqueue-ns") {
      o.inject_enqueue_ns = std::strtod(v, &end);
    } else if (a == "--inject-stall-ms") {
      o.inject_stall_ms = std::strtod(v, &end);
    } else {
      usage(("unknown option " + a).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + a).c_str());
  }
  if (!have_workload) usage("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage("--seconds out of range");
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t c = line.find(':');
      return c == std::string::npos ? line : line.substr(c + 2);
    }
  return "unknown";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const Metric* find(const std::vector<Metric>& ms, const char* name) {
  for (const Metric& m : ms)
    if (m.name == name) return &m;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Report rep;
  if (opt.workload == "rt_blast") rep = run_rt_blast(opt);
  else if (opt.workload == "rt_paced_1m") rep = run_rt_paced_1m(opt);
  else if (opt.workload == "rt_overload") rep = run_rt_overload(opt);
  else if (opt.workload == "sim_tandem") rep = run_sim_tandem(opt);
  else usage(("unknown workload " + opt.workload).c_str());
  rep.e2e("rss_mb", peak_rss_mb(), "MB");
  for (const auto* set : {&rep.end_to_end, &rep.per_layer})
    for (const Metric& m : *set)
      if (!std::isfinite(m.value)) rep.fail(m.name + " is not finite");

  for (const std::string& n : rep.notes) std::printf("# %s\n", n.c_str());
  std::printf("# machine {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"nproc\": %u, \"cpu_model\": %s}\n",
              json_str(opt.workload).c_str(),
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
              std::thread::hardware_concurrency(), json_str(cpu_model()).c_str());
  std::printf("# fail_frac %.6g = failed packets %llu/%llu + breached windows "
              "%llu/%llu + differing repetitions %llu/%llu\n",
              rep.fail_frac(), (unsigned long long)rep.failed_packets,
              (unsigned long long)rep.offered,
              (unsigned long long)rep.windows_breached,
              (unsigned long long)rep.windows,
              (unsigned long long)rep.repeats_differing,
              (unsigned long long)rep.repeats_compared);
  for (const std::string& f : rep.failures)
    std::printf("# FAILED %s\n", f.c_str());

  std::string metrics;
  std::string na;
  auto add = [&](const char* name, double value, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    if (!std::isfinite(value)) value = 0.0;  // already a failed check
    metrics += json_str(name) + ": {\"value\": " + num(value) +
               ", \"unit\": " + json_str(unit) + "}";
  };
  if (!opt.trace) {
    for (const Name& n : kEndToEnd) {
      const Metric* m = find(rep.end_to_end, n.name);
      if (m == nullptr) {
        std::fprintf(stderr, "perfbench: %s did not report %s\n",
                     opt.workload.c_str(), n.name);
        return 1;
      }
      std::printf("# %-36s %16.6g %s\n", n.name, m->value, n.unit);
      add(n.name, m->value, n.unit);
    }
  } else {
    for (const Name& n : kPerLayer) {
      const Metric* m = find(rep.per_layer, n.name);
      if (m == nullptr) na += std::string(na.empty() ? "" : ", ") + n.name;
      else std::printf("# %-36s %16.6g %s\n", n.name, m->value, n.unit);
      add(n.name, m ? m->value : 0.0, n.unit);
    }
    if (!na.empty())
      std::printf("# n/a on this workload (reported as 0): %s\n", na.c_str());
  }

  const bool correct = rep.failures.empty();
  uint64_t failed =
      rep.failed_packets + rep.windows_breached + rep.repeats_differing;
  if (!correct && failed == 0) failed = 1;
  const uint64_t attempted = std::max<uint64_t>(
      1, rep.offered + rep.windows + rep.repeats_compared);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", (unsigned long long)attempted,
              (unsigned long long)failed, metrics.c_str());
  return correct ? 0 : 1;
}
