// sfq_serve — wall-clock real-time packet service (docs/REALTIME.md).
//
// Runs any scheduling discipline in the library against real time: N
// producer threads generate traffic with the traffic/ source models, push
// through lock-free ingress rings into the RtEngine dispatcher, which paces
// transmissions on std::chrono::steady_clock via a ConstantRate link.
//
//   sfq_serve --sched SFQ --flows 4 --producers 2 --rate 100e6 --duration 2
//   sfq_serve --sched SCFQ --model poisson --load 1.5 --policy pushout
//   sfq_serve --check --trace run.jsonl --metrics run.metrics.json
//   sfq_serve --shed --buffer 64 --load 2.5 --fault-pause 0.8,0.3
//             --fault-jump 1.2,0.4 --stall-timeout 0.1
//   sfq_serve --shards 4 --failover --fault-kill 0.5,1 --load 2.5
//
// Prints per-flow service, the drop taxonomy, achieved packets/sec, pacing
// lag, and the measured wall-clock fairness of every flow pair against the
// Theorem-1 bound, then self-checks the drop-ledger conservation identities
// (docs/ROBUSTNESS.md) — a violation is always a non-zero exit. --shed arms
// the overload admission machine; the --fault-* flags script rt-layer faults
// (dispatcher pauses, clock jumps/skew) against the watchdog, and the exit
// status distinguishes a recovered stall (0: service resumed) from a
// permanent one (1: restart budget exhausted). With --check, the online
// invariant checker (wrapped in the thread-safe rt::SyncSink) validates the
// live trace stream and a violation makes the exit status non-zero.
//
// SIGINT/SIGTERM trigger a graceful drain instead of an abort: producers are
// stopped at the next packet boundary, the engine drain-stops, and the full
// summary + conservation self-check still run (exit non-zero if the
// interrupted ledger does not balance). --shards N --failover arms the shard
// supervisor: a permanently dead shard (watchdog budget exhausted, or a
// --fault-kill) is fenced, its flows rehomed onto survivors, and a cold
// restart attempted; the summary then reports per-shard verdicts and gates
// the surviving flows' fairness against the migration-extended bound.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/scheduler_factory.h"
#include "obs/invariant_checker.h"
#include "obs/metrics.h"
#include "obs/telemetry/registry_bridge.h"
#include "obs/telemetry/telemetry.h"
#include "obs/trace.h"
#include "rt/engine.h"
#include "rt/load_gen.h"
#include "rt/shard/shard_supervisor.h"
#include "rt/shard/sharded_engine.h"
#include "rt/sync_sink.h"
#include "stats/fairness.h"

namespace {

// SIGINT/SIGTERM request a graceful drain: the snapshot loops poll this,
// stop the producers, and run the normal summary + conservation gate.
volatile std::sig_atomic_t g_stop_signal = 0;
extern "C" void on_stop_signal(int sig) { g_stop_signal = sig; }

struct Args {
  std::string sched = "SFQ";
  double quantum = 0.0;  // SFQ-W tag-quantization window, s; 0 = auto
  std::size_t flows = 4;
  std::size_t producers = 2;
  std::vector<double> weights;  // bits/s; filled from --weights or derived
  double rate = 100e6;          // link bits/s
  double duration = 2.0;        // seconds
  std::string model = "cbr";
  double load = 2.0;            // offered = load * weight per flow
  double packet_bits = 8000.0;
  std::size_t buffer = 256;
  std::string policy = "taildrop";
  std::size_t ring = 1 << 14;
  double stall_timeout = 2.0;  // watchdog window, seconds; 0 disables
  unsigned restart_budget = 3;  // watchdog restarts before permanent stop
  bool shed = false;            // overload admission control (--buffer > 0)
  sfq::rt::RtFaultPlan fault_plan;  // --fault-pause/--fault-jump/--fault-skew
  struct KillFault {  // --fault-kill AT[,SHARD]
    double at = 0.0;
    std::size_t shard = 0;
  };
  std::vector<KillFault> fault_kills;
  bool failover = false;  // shard supervisor (--shards > 1)
  double stats_interval = 0.0;  // live console stats cadence; 0 disables
  int stats_port = -1;          // localhost HTTP exposition; -1 disables
  std::size_t shards = 1;       // >1: ShardedEngine (docs/REALTIME.md)
  bool unpaced = false;
  bool check = false;
  std::string trace_path;
  std::string metrics_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --sched NAME        discipline (default SFQ; see scheduler_names).\n"
      "                      SFQ-W is the timestamp-wheel SFQ core: exact\n"
      "                      order up to one quantization window, widened\n"
      "                      fairness bound (docs/PERFORMANCE.md)\n"
      "  --quantum T         SFQ-W tag-quantization window in seconds\n"
      "                      (default: one max-size packet time,\n"
      "                      --packet-bits / link share)\n"
      "  --flows N           number of flows (default 4)\n"
      "  --producers N       producer threads (default 2)\n"
      "  --weights a,b,...   flow weights in bits/s (default: split 1/2 of "
      "--rate evenly)\n"
      "  --rate R            link rate, bits/s (default 100e6)\n"
      "  --duration S        seconds of generated traffic (default 2)\n"
      "  --model M           cbr | poisson | onoff (default cbr)\n"
      "  --load F            offered rate = F * weight (default 2.0)\n"
      "  --packet-bits B     packet size (default 8000)\n"
      "  --buffer N          scheduler backlog cap, 0 = infinite (default "
      "256)\n"
      "  --policy P          taildrop | pushout (default taildrop)\n"
      "  --ring N            per-producer ring capacity (default 16384)\n"
      "  --stall-timeout S   watchdog: stall if backlogged with no service\n"
      "                      progress for S wall seconds (default 2, 0 off)\n"
      "  --restart-budget N  watchdog: consecutive fruitless restarts before\n"
      "                      the permanent stop (default 3)\n"
      "  --shed              overload admission control: weighted-fair load\n"
      "                      shedding behind per-flow token buckets while\n"
      "                      occupancy is high (requires --buffer > 0)\n"
      "  --fault-pause AT,DUR\n"
      "                      inject: dispatcher sleeps DUR s at raw time AT\n"
      "                      (seconds from engine start; repeatable)\n"
      "  --fault-jump AT,DELTA\n"
      "                      inject: clock steps by DELTA s at raw time AT\n"
      "                      (backward steps freeze the engine clock)\n"
      "  --fault-skew FROM,UNTIL,FACTOR\n"
      "                      inject: clock runs at FACTOR x real rate inside\n"
      "                      [FROM, UNTIL)\n"
      "  --fault-kill AT[,SHARD]\n"
      "                      inject: the dispatcher (of shard SHARD, default\n"
      "                      0) dies permanently at raw time AT; with\n"
      "                      --shards 1 this demonstrates the permanent stop,\n"
      "                      with --failover the supervisor recovers it\n"
      "  --failover          shard failover (--shards > 1): fence a dead\n"
      "                      shard, rehome its flows onto survivors via the\n"
      "                      rendezvous remap, cold-restart it and rehome\n"
      "                      back (docs/ROBUSTNESS.md \"Shard failover\")\n"
      "  --stats-interval S  print a live stats line every S seconds\n"
      "  --stats-port P      serve Prometheus text at /metrics and JSON at\n"
      "                      /metrics.json on 127.0.0.1:P (0 = ephemeral)\n"
      "  --shards N          dispatcher shards (default 1). N > 1 runs the\n"
      "                      sharded multi-core engine: flows hash to shards,\n"
      "                      each shard is a full engine, the H-SFQ root\n"
      "                      splits --rate by weight share and the summary\n"
      "                      reports per-shard ledgers + the hierarchical\n"
      "                      fairness bound (no --trace/--check in this mode)\n"
      "  --unpaced           blast arrivals as fast as rings accept\n"
      "  --trace FILE        JSONL packet-lifecycle trace\n"
      "  --metrics FILE      metrics registry JSON dump\n"
      "  --check             online invariant checking (non-zero exit on "
      "violation)\n",
      argv0);
  std::exit(2);
}

std::vector<double> parse_list(const std::string& s) {
  std::vector<double> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::stod(s.substr(pos, comma - pos)));
    pos = comma + 1;
  }
  return out;
}

Args parse(int argc, char** argv) {
  Args a;
  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--sched") a.sched = need(i);
    else if (f == "--quantum") a.quantum = std::stod(need(i));
    else if (f == "--flows") a.flows = std::strtoul(need(i), nullptr, 10);
    else if (f == "--producers") a.producers = std::strtoul(need(i), nullptr, 10);
    else if (f == "--weights") a.weights = parse_list(need(i));
    else if (f == "--rate") a.rate = std::stod(need(i));
    else if (f == "--duration") a.duration = std::stod(need(i));
    else if (f == "--model") a.model = need(i);
    else if (f == "--load") a.load = std::stod(need(i));
    else if (f == "--packet-bits") a.packet_bits = std::stod(need(i));
    else if (f == "--buffer") a.buffer = std::strtoul(need(i), nullptr, 10);
    else if (f == "--policy") a.policy = need(i);
    else if (f == "--ring") a.ring = std::strtoul(need(i), nullptr, 10);
    else if (f == "--stall-timeout") a.stall_timeout = std::stod(need(i));
    else if (f == "--restart-budget")
      a.restart_budget = static_cast<unsigned>(std::strtoul(need(i), nullptr, 10));
    else if (f == "--shed") a.shed = true;
    else if (f == "--fault-pause") {
      const std::vector<double> v = parse_list(need(i));
      if (v.size() != 2) usage(argv[0]);
      a.fault_plan.pauses.push_back({v[0], v[1]});
    } else if (f == "--fault-jump") {
      const std::vector<double> v = parse_list(need(i));
      if (v.size() != 2) usage(argv[0]);
      a.fault_plan.jumps.push_back({v[0], v[1]});
    } else if (f == "--fault-skew") {
      const std::vector<double> v = parse_list(need(i));
      if (v.size() != 3) usage(argv[0]);
      a.fault_plan.skews.push_back({v[0], v[1], v[2]});
    } else if (f == "--fault-kill") {
      const std::vector<double> v = parse_list(need(i));
      if (v.size() != 1 && v.size() != 2) usage(argv[0]);
      a.fault_kills.push_back(
          {v[0], v.size() == 2 ? static_cast<std::size_t>(v[1]) : 0});
    } else if (f == "--failover") a.failover = true;
    else if (f == "--stats-interval") a.stats_interval = std::stod(need(i));
    else if (f == "--stats-port") a.stats_port = std::atoi(need(i));
    else if (f == "--shards") a.shards = std::strtoul(need(i), nullptr, 10);
    else if (f == "--unpaced") a.unpaced = true;
    else if (f == "--check") a.check = true;
    else if (f == "--trace") a.trace_path = need(i);
    else if (f == "--metrics") a.metrics_path = need(i);
    else usage(argv[0]);
  }
  if (a.flows == 0 || a.producers == 0 || a.rate <= 0.0 || a.duration <= 0.0 ||
      a.packet_bits <= 0.0 || a.load <= 0.0)
    usage(argv[0]);
  if (a.shed && a.buffer == 0) {
    std::fprintf(stderr,
                 "--shed needs a finite --buffer (occupancy is measured "
                 "against the backlog cap)\n");
    std::exit(2);
  }
  if (a.shards == 0) usage(argv[0]);
  if (a.failover && a.shards < 2) {
    std::fprintf(stderr,
                 "--failover needs --shards > 1 (rehoming needs a survivor "
                 "shard)\n");
    std::exit(2);
  }
  for (const Args::KillFault& k : a.fault_kills) {
    if (k.shard >= a.shards) {
      std::fprintf(stderr, "--fault-kill shard %zu out of range (%zu shards)\n",
                   k.shard, a.shards);
      std::exit(2);
    }
    // Single-engine mode has no shard targeting: the kill goes straight into
    // the engine's own fault plan (a permanent-stop demonstration).
    if (a.shards == 1) a.fault_plan.kills.push_back({k.at});
  }
  if (a.shards > 1 && (a.check || !a.trace_path.empty())) {
    std::fprintf(stderr,
                 "--shards > 1 does not support --trace/--check (the trace "
                 "stream and invariant profile assume one dispatcher)\n");
    std::exit(2);
  }
  if (a.weights.empty()) {
    // Default: the flows share half the link, so load factors > 2 overload.
    a.weights.assign(a.flows, 0.5 * a.rate / static_cast<double>(a.flows));
  }
  while (a.weights.size() < a.flows) a.weights.push_back(a.weights.back());
  a.weights.resize(a.flows);
  return a;
}

sfq::rt::FlowLoad::Model model_of(const std::string& name) {
  if (name == "cbr") return sfq::rt::FlowLoad::Model::kCbr;
  if (name == "poisson") return sfq::rt::FlowLoad::Model::kPoisson;
  if (name == "onoff") return sfq::rt::FlowLoad::Model::kOnOff;
  std::fprintf(stderr, "unknown model: %s\n", name.c_str());
  std::exit(2);
}

// --shards N > 1: the sharded multi-core engine (docs/REALTIME.md sharding
// section). Same traffic and summary shape as the single-engine path, plus
// per-shard ledgers/occupancy and the hierarchical cross-shard fairness
// verdict; the per-shard conservation identities and their exact global sum
// are both gated.
int run_sharded(const Args& args) {
  using namespace sfq;

  std::vector<rt::ShardFlow> flows;
  std::vector<std::string> flow_names;
  for (std::size_t f = 0; f < args.flows; ++f) {
    flow_names.push_back("flow" + std::to_string(f));
    flows.push_back(
        rt::ShardFlow{args.weights[f], args.packet_bits, flow_names.back()});
  }

  rt::ShardedEngineOptions sopts;
  sopts.shards = args.shards;
  sopts.link_rate = args.rate;
  sopts.engine.producers = args.producers;
  sopts.engine.ring_capacity = args.ring;
  sopts.engine.buffer_limit = args.buffer;
  sopts.engine.overload_policy = args.policy == "pushout"
                                     ? net::OverloadPolicy::kPushout
                                     : net::OverloadPolicy::kTailDrop;
  sopts.engine.stall_timeout = args.stall_timeout;
  sopts.engine.restart_budget = args.restart_budget;
  sopts.engine.admission_control = args.shed;
  sopts.engine.fault_plan = args.fault_plan;
  sopts.stats_interval = args.stats_interval;
  sopts.stats_port = args.stats_port;
  sopts.stats_console = args.stats_interval > 0.0;
  sopts.failover.enabled = args.failover;
  for (const Args::KillFault& k : args.fault_kills) {
    rt::RtFaultPlan kp;
    kp.kills.push_back({k.at});
    sopts.shard_faults.push_back({k.shard, std::move(kp)});
  }

  const std::string sched_name = args.sched;
  auto factory = [&](std::size_t, double share) {
    SchedulerOptions so;
    so.assumed_capacity = args.rate * share;
    // SFQ-W quantum: explicit, else one max-size packet time on this
    // shard's link share (the factory ignores it for other disciplines).
    so.sfq_wheel_quantum = args.quantum > 0.0
                               ? args.quantum
                               : args.packet_bits / (args.rate * share);
    return make_scheduler(sched_name, so);
  };
  std::string err;
  std::unique_ptr<rt::ShardedEngine> engine =
      rt::ShardedEngine::try_create(factory, flows, sopts, &err);
  if (!engine) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 2;
  }

  obs::telemetry::TelemetryOptions topts;
  topts.shards = args.shards;
  obs::telemetry::Telemetry telemetry(topts);
  engine->set_telemetry(&telemetry);

  std::vector<std::vector<rt::FlowLoad>> producer_flows(args.producers);
  for (std::size_t f = 0; f < args.flows; ++f) {
    rt::FlowLoad l;
    l.flow = static_cast<FlowId>(f);
    l.model = model_of(args.model);
    l.rate = args.load * args.weights[f];
    l.packet_bits = args.packet_bits;
    l.seed = 1 + f;
    producer_flows[f % args.producers].push_back(l);
  }
  rt::LoadGenOptions lg_opts;
  lg_opts.paced = !args.unpaced;
  lg_opts.block_on_full = args.unpaced;

  std::printf("sfq_serve: %zu x %s shards on a %.3g bit/s link, %zu flows, "
              "%zu producers, %s %s load x%.2f, %.2fs\n",
              args.shards, args.sched.c_str(), args.rate, args.flows,
              args.producers, args.unpaced ? "unpaced" : "paced",
              args.model.c_str(), args.load, args.duration);

  engine->start();
  if (args.stats_port >= 0)
    std::printf("stats endpoint: http://127.0.0.1:%u/metrics (and "
                "/metrics.json)\n",
                engine->stats_endpoint_port());
  rt::LoadGen load_gen(*engine, std::move(producer_flows), lg_opts);

  std::vector<std::vector<double>> snapshots;
  std::vector<double> snap_time;        // seconds since wall_start
  std::vector<uint64_t> snap_route_ver; // routing-table version at snapshot
  const Time wall_start = engine->now();
  load_gen.start(args.duration);
  if (!args.unpaced) {
    const Time snap_every = std::max(args.duration / 20.0, 0.05);
    Time next_snap = wall_start + snap_every;
    while (engine->now() - wall_start < args.duration) {
      if (engine->stalled() || g_stop_signal) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (engine->now() >= next_snap) {
        snapshots.push_back(engine->service_snapshot());
        snap_time.push_back(engine->now() - wall_start);
        snap_route_ver.push_back(engine->route_version());
        next_snap += snap_every;
      }
    }
  }
  if (g_stop_signal) {
    std::printf("\nsignal %d: graceful drain — stopping producers, flushing "
                "the backlog, running the conservation self-check\n",
                static_cast<int>(g_stop_signal));
    load_gen.request_stop();
  }
  load_gen.join();
  engine->stop(rt::StopMode::kDrain);
  const Time wall_end = engine->now();

  const rt::EngineStats st = engine->stats();
  const double elapsed = wall_end - wall_start;

  std::printf("\n%-8s %6s %14s %12s %14s %12s\n", "flow", "shard",
              "weight(b/s)", "tx_packets", "tx_bits", "goodput(b/s)");
  for (std::size_t f = 0; f < args.flows; ++f) {
    const double bits = engine->flow_tx_bits(static_cast<FlowId>(f));
    std::printf("%-8s %6zu %14.4g %12.0f %14.0f %12.4g\n",
                flow_names[f].c_str(), engine->shard_of(f), args.weights[f],
                bits / args.packet_bits, bits, bits / elapsed);
  }

  // Per-shard ledgers + occupancy (which shard is hot), then the global sum.
  // `state` is the live per-shard stall verdict (satellite of the failover
  // work: rt.shard_stalled / rt.last_stall_stage carry the same signal on
  // the stats exposition).
  std::printf("\n%-8s %6s %12s %12s %12s %12s %6s %5s %s\n", "shard", "flows",
              "weight(b/s)", "tx_packets", "drops", "backlog", "occ%", "ov",
              "state");
  for (std::size_t k = 0; k < args.shards; ++k) {
    const rt::EngineStats es = engine->shard_stats(k);
    std::size_t nflows = 0;
    for (std::size_t f = 0; f < args.flows; ++f)
      if (engine->shard_of(f) == k) ++nflows;
    const double occ = args.buffer > 0
                           ? 100.0 * static_cast<double>(es.backlog) /
                                 static_cast<double>(args.buffer)
                           : 0.0;
    std::printf("%-8zu %6zu %12.4g %12llu %12llu %12llu %6.0f %5d %s\n", k,
                nflows, engine->shard_weight(k),
                static_cast<unsigned long long>(es.transmitted),
                static_cast<unsigned long long>(es.dropped() +
                                                es.ingress_drops),
                static_cast<unsigned long long>(es.backlog), occ,
                es.overload_state,
                engine->shard_stalled(k)
                    ? (std::string("DEAD@") +
                       rt::to_string(es.last_stall_stage))
                          .c_str()
                    : "ok");
  }

  std::printf("\nproduced %llu  ingress_drops %llu  accepted %llu  "
              "transmitted %llu  backlog %llu  abandoned %llu\n",
              static_cast<unsigned long long>(load_gen.produced_total()),
              static_cast<unsigned long long>(st.ingress_drops),
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.transmitted),
              static_cast<unsigned long long>(st.backlog),
              static_cast<unsigned long long>(st.abandoned));
  std::printf("drops by cause:");
  for (std::size_t c = 0; c < obs::kDropCauseCount; ++c)
    if (st.drops[c] != 0)
      std::printf(" %s=%llu", obs::to_string(static_cast<obs::DropCause>(c)),
                  static_cast<unsigned long long>(st.drops[c]));
  if (st.dropped() == 0) std::printf(" none");
  std::printf("\nthroughput %.3g packets/s (%.3g bit/s), wall %.3fs, "
              "max pacing lag %.3g ms, worst overload state %d\n",
              st.transmitted / elapsed, st.tx_bits / elapsed, elapsed,
              1e3 * st.max_service_lag, engine->overload_state());

  // Failover epoch log: one verdict line per shard death the supervisor
  // handled (docs/ROBUSTNESS.md "Shard failover").
  std::vector<char> shard_died(args.shards, 0);
  if (engine->failover_enabled()) {
    std::printf("failover  %llu shard failover(s), %llu flow rehoming(s), "
                "migration slack %.4g ms, migrated %llu in / %llu out%s\n",
                static_cast<unsigned long long>(engine->shard_failovers()),
                static_cast<unsigned long long>(engine->flows_rehomed()),
                1e3 * engine->migration_slack(),
                static_cast<unsigned long long>(st.migrated_in),
                static_cast<unsigned long long>(st.migrated_out),
                engine->stalled() ? " — WEDGED (no survivor left)" : "");
    for (const rt::FailoverEvent& ev : engine->supervisor()->events()) {
      shard_died[ev.shard] = 1;
      std::printf("  shard %zu: DIED -> rehomed %zu flow(s) (%llu backlog "
                  "pkt) onto survivors in %.3g ms%s\n",
                  ev.shard, ev.flows_moved,
                  static_cast<unsigned long long>(ev.packets_moved),
                  1e3 * ev.latency,
                  ev.restarted ? ", cold restart OK, flows rehomed back"
                               : ", left on survivors");
    }
  }

  // Conservation (rt::EngineStats::check): each shard's ledger must satisfy
  // the per-engine identities exactly, and the global sum the offer and
  // settled-migration ones too — every offered packet is accounted on
  // exactly one shard.
  bool conserve_ok = true;
  {
    auto check = [&](const std::string& where, const rt::EngineStats& es,
                     std::optional<uint64_t> offers) {
      if (const auto broken = es.check(offers)) {
        std::printf("conservation VIOLATED (%s): %s\n", where.c_str(),
                    rt::to_string(*broken).c_str());
        conserve_ok = false;
      }
    };
    for (std::size_t k = 0; k < args.shards; ++k)
      check("shard " + std::to_string(k), engine->shard_stats(k), {});
    check("global sum", st, load_gen.produced_total());
    if (conserve_ok)
      std::printf("conservation OK: every offered packet is accounted on "
                  "exactly one shard (sum of %zu shard ledgers == offers)\n",
                  args.shards);
  }

  // Hierarchical fairness: worst per-pair normalized gap over middle-of-run
  // windows vs fairness_bound(f, m) — Theorem 1 within a shard, + both
  // shards' eq.-65 slack across shards. Slack: one in-flight quantum per
  // flow, as in the single-engine verdict.
  bool fairness_ok = true;
  if (snapshots.size() >= 4 && args.flows >= 2) {
    const std::size_t lo = snapshots.size() / 4;
    const std::size_t hi = snapshots.size() - snapshots.size() / 4;
    // Across a failover, flows homed on a shard that died spent the
    // migration blackout unserved — their windows void the
    // continuously-backlogged premise, so those pairs are excluded from the
    // gate. Survivor pairs are still gated, but only over windows that do
    // not straddle the migration epoch: the evacuate and rehome-back
    // remaps re-weight every shard's root share, so a window spanning a
    // routing-table version bump (or the pre-fence blackout between the
    // kill and its detection, when the version has not moved yet) measures
    // the reweight transient, not steady-state SFQ. Clean windows are
    // gated against the bound extended by the supervisor's measured
    // migration_slack (residual adopted-backlog drain;
    // docs/ROBUSTNESS.md derivation).
    const double mig_slack =
        engine->shard_failovers() > 0 ? engine->migration_slack() : 0.0;
    auto window_clean = [&](std::size_t i, std::size_t j) {
      if (snap_route_ver[i] != snap_route_ver[j]) return false;
      for (const Args::KillFault& k : args.fault_kills)
        if (snap_time[i] <= k.at && k.at <= snap_time[j]) return false;
      return true;
    };
    std::size_t excluded_pairs = 0;
    double worst_ratio = 0.0;
    double worst_gap = 0.0, worst_bound = 0.0;
    std::size_t worst_f = 0, worst_m = 1;
    bool worst_cross = false;
    for (std::size_t f = 0; f < args.flows; ++f) {
      for (std::size_t m = f + 1; m < args.flows; ++m) {
        if (shard_died[engine->home_shard_of(f)] ||
            shard_died[engine->home_shard_of(m)]) {
          ++excluded_pairs;
          continue;
        }
        const double bound =
            engine->fairness_bound(static_cast<FlowId>(f),
                                   static_cast<FlowId>(m)) +
            stats::sfq_fairness_bound(args.packet_bits, args.weights[f],
                                      args.packet_bits, args.weights[m]) +
            mig_slack;
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = i + 1; j < hi; ++j) {
            if (!window_clean(i, j)) continue;
            const double df = snapshots[j][f] - snapshots[i][f];
            const double dm = snapshots[j][m] - snapshots[i][m];
            const double gap =
                std::fabs(df / args.weights[f] - dm / args.weights[m]);
            if (gap / bound > worst_ratio) {
              worst_ratio = gap / bound;
              worst_gap = gap;
              worst_bound = bound;
              worst_f = f;
              worst_m = m;
              worst_cross = engine->shard_of(f) != engine->shard_of(m);
            }
          }
        }
      }
    }
    const bool gate = args.fault_plan.empty();
    if (worst_bound > 0.0) {
      std::printf("fairness  worst |dW_%zu/r - dW_%zu/r| = %.4g ms vs "
                  "hierarchical bound %.4g ms%s (%s pair%s): %s%s\n",
                  worst_f, worst_m, 1e3 * worst_gap, 1e3 * worst_bound,
                  mig_slack > 0.0 ? " (incl. migration slack)" : "",
                  worst_cross ? "cross-shard" : "same-shard",
                  excluded_pairs > 0 ? ", failed-shard pairs excluded" : "",
                  worst_ratio <= 1.0 ? "OK" : "VIOLATED",
                  gate ? "" : " (informational: faults injected)");
      fairness_ok = !gate || worst_ratio <= 1.0;
    } else {
      std::printf("fairness  no gateable window (every pair touched the "
                  "failed shard, or every sampled window straddles the "
                  "migration epoch)\n");
    }
  }

  bool ok = fairness_ok && conserve_ok;
  if (engine->stalled()) {
    std::printf("WATCHDOG: PERMANENT STALL — %llu stall(s), %llu recovered; "
                "restart budget %u exhausted wedged at stage %s\n",
                static_cast<unsigned long long>(st.stalls),
                static_cast<unsigned long long>(st.recoveries),
                args.restart_budget, rt::to_string(st.last_stall_stage));
    ok = false;
  } else if (st.stalls > 0) {
    std::printf("WATCHDOG: recovered — %llu stall(s) detected (last stage "
                "%s), %llu recovery(ies); service resumed and the run "
                "completed\n",
                static_cast<unsigned long long>(st.stalls),
                rt::to_string(st.last_stall_stage),
                static_cast<unsigned long long>(st.recoveries));
  }
  if (!args.metrics_path.empty()) {
    // The root stats thread owns this gauge while running; restate it here
    // so a dump without --stats-interval still carries the worst-of state.
    telemetry.set_gauge(obs::telemetry::GaugeId::kOverloadWorst,
                        static_cast<double>(engine->overload_state()));
    obs::telemetry::TelemetrySnapshot tsnap = telemetry.snapshot();
    obs::MetricsRegistry registry;
    obs::telemetry::bridge_to_registry(tsnap, registry);
    std::ofstream out(args.metrics_path);
    out << registry.json() << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sfq;
  const Args args = parse(argc, argv);
  // Graceful drain on SIGINT/SIGTERM: the serving loops poll g_stop_signal,
  // stop the producers at a packet boundary, drain-stop the engine and still
  // run the full summary + conservation gate (exit non-zero on violation).
  std::signal(SIGINT, on_stop_signal);
  std::signal(SIGTERM, on_stop_signal);
  if (args.shards > 1) return run_sharded(args);

  SchedulerOptions sched_opts;
  sched_opts.assumed_capacity = args.rate;
  // SFQ-W quantum: explicit, else one max-size packet time on the link (the
  // factory ignores it for other disciplines).
  sched_opts.sfq_wheel_quantum =
      args.quantum > 0.0 ? args.quantum : args.packet_bits / args.rate;
  std::unique_ptr<Scheduler> sched;
  try {
    sched = make_scheduler(args.sched, sched_opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  std::vector<std::string> flow_names;
  for (std::size_t f = 0; f < args.flows; ++f) {
    flow_names.push_back("flow" + std::to_string(f));
    sched->add_flow(args.weights[f], args.packet_bits, flow_names.back());
  }

  rt::EngineOptions eng_opts;
  eng_opts.producers = args.producers;
  eng_opts.ring_capacity = args.ring;
  eng_opts.buffer_limit = args.buffer;
  eng_opts.overload_policy = args.policy == "pushout"
                                 ? net::OverloadPolicy::kPushout
                                 : net::OverloadPolicy::kTailDrop;
  eng_opts.stall_timeout = args.stall_timeout;
  eng_opts.restart_budget = args.restart_budget;
  eng_opts.admission_control = args.shed;
  eng_opts.fault_plan = args.fault_plan;
  eng_opts.stats_interval = args.stats_interval;
  eng_opts.stats_port = args.stats_port;
  eng_opts.stats_console = args.stats_interval > 0.0;
  rt::RtEngine engine(*sched, std::make_unique<net::ConstantRate>(args.rate),
                      eng_opts);

  // The telemetry plane is always attached: counters cost a relaxed
  // load+store each and the latency summary below wants the histograms.
  obs::telemetry::Telemetry telemetry;
  engine.set_telemetry(&telemetry);

  // Observability: every sink that might be read while the dispatcher runs
  // goes through the thread-safe rt::SyncSink adapter.
  obs::Tracer tracer;
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::JsonlSink> jsonl;
  std::unique_ptr<obs::MetricsSink> metrics_sink;
  std::unique_ptr<obs::InvariantChecker> checker;
  std::vector<std::unique_ptr<rt::SyncSink>> sync_sinks;
  auto attach = [&](obs::TraceSink& sink) {
    sync_sinks.push_back(std::make_unique<rt::SyncSink>(sink));
    tracer.add_sink(sync_sinks.back().get());
  };
  if (!args.trace_path.empty()) {
    jsonl = std::make_unique<obs::JsonlSink>(args.trace_path);
    jsonl->meta("scheduler", sched->name());
    jsonl->meta("mode", "realtime");
    attach(*jsonl);
  }
  if (!args.metrics_path.empty()) {
    metrics_sink = std::make_unique<obs::MetricsSink>(registry, flow_names);
    attach(*metrics_sink);
  }
  if (args.check) {
    obs::InvariantChecker::Options copts =
        obs::InvariantChecker::for_scheduler(args.sched);
    copts.order_slack = sched->quantization_window();
    checker = std::make_unique<obs::InvariantChecker>(copts);
    attach(*checker);
  }
  if (tracer.sink_count() > 0) engine.set_tracer(&tracer);

  // Round-robin flows over producer threads.
  std::vector<std::vector<rt::FlowLoad>> producer_flows(args.producers);
  for (std::size_t f = 0; f < args.flows; ++f) {
    rt::FlowLoad l;
    l.flow = static_cast<FlowId>(f);
    l.model = model_of(args.model);
    l.rate = args.load * args.weights[f];
    l.packet_bits = args.packet_bits;
    l.seed = 1 + f;
    producer_flows[f % args.producers].push_back(l);
  }

  rt::LoadGenOptions lg_opts;
  lg_opts.paced = !args.unpaced;
  lg_opts.block_on_full = args.unpaced;  // blast mode accounts every packet

  std::printf("sfq_serve: %s on a %.3g bit/s link, %zu flows, %zu producers, "
              "%s %s load x%.2f, %.2fs\n",
              sched->name().c_str(), args.rate, args.flows, args.producers,
              args.unpaced ? "unpaced" : "paced", args.model.c_str(),
              args.load, args.duration);

  engine.start();
  if (args.stats_port >= 0)
    std::printf("stats endpoint: http://127.0.0.1:%u/metrics (and "
                "/metrics.json)\n",
                engine.stats_endpoint_port());
  rt::LoadGen load_gen(engine, std::move(producer_flows), lg_opts);

  // Coarse service snapshots for the wall-clock fairness measurement: only
  // windows with every flow continuously backlogged qualify for Theorem 1,
  // so keep the middle half of the run (steady state under load > 1).
  std::vector<std::vector<double>> snapshots;
  const Time wall_start = engine.now();
  load_gen.start(args.duration);
  if (!args.unpaced) {
    const Time snap_every = std::max(args.duration / 20.0, 0.05);
    Time next_snap = wall_start + snap_every;
    while (engine.now() - wall_start < args.duration) {
      if (engine.stalled()) break;  // watchdog stopped the dispatcher
      if (g_stop_signal) break;     // graceful drain requested
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (engine.now() >= next_snap) {
        snapshots.push_back(engine.service_snapshot());
        next_snap += snap_every;
      }
    }
  }
  if (g_stop_signal) {
    std::printf("\nsignal %d: graceful drain — stopping producers, flushing "
                "the backlog, running the conservation self-check\n",
                static_cast<int>(g_stop_signal));
    load_gen.request_stop();
  }
  load_gen.join();
  engine.stop(rt::StopMode::kDrain);
  const Time wall_end = engine.now();
  tracer.finish();

  const rt::EngineStats st = engine.stats();
  const double elapsed = wall_end - wall_start;

  std::printf("\n%-8s %14s %12s %14s %12s\n", "flow", "weight(b/s)",
              "tx_packets", "tx_bits", "goodput(b/s)");
  for (std::size_t f = 0; f < args.flows; ++f) {
    const double bits = engine.flow_tx_bits(static_cast<FlowId>(f));
    std::printf("%-8s %14.4g %12.0f %14.0f %12.4g\n", flow_names[f].c_str(),
                args.weights[f], bits / args.packet_bits, bits,
                bits / elapsed);
  }

  std::printf("\nproduced %llu  ingress_drops %llu  accepted %llu  "
              "transmitted %llu  backlog %llu  abandoned %llu\n",
              static_cast<unsigned long long>(load_gen.produced_total()),
              static_cast<unsigned long long>(st.ingress_drops),
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.transmitted),
              static_cast<unsigned long long>(st.backlog),
              static_cast<unsigned long long>(st.abandoned));
  std::printf("drops by cause:");
  for (std::size_t c = 0; c < obs::kDropCauseCount; ++c)
    if (st.drops[c] != 0)
      std::printf(" %s=%llu",
                  obs::to_string(static_cast<obs::DropCause>(c)),
                  static_cast<unsigned long long>(st.drops[c]));
  if (st.dropped() == 0) std::printf(" none");
  std::printf("\nthroughput %.3g packets/s (%.3g bit/s), wall %.3fs, "
              "max pacing lag %.3g ms\n",
              st.transmitted / elapsed, st.tx_bits / elapsed, elapsed,
              1e3 * st.max_service_lag);

  // Ledger conservation self-check (rt::EngineStats::check): the exact
  // identities the engine guarantees once stop() has returned. LoadGen is
  // the only producer here, so its attempt count is the engine's offer
  // total. Any mismatch is a bug, never noise — fail the run.
  bool conserve_ok = true;
  if (const auto broken = st.check(load_gen.produced_total())) {
    std::printf("conservation VIOLATED: %s\n", rt::to_string(*broken).c_str());
    conserve_ok = false;
  } else {
    std::printf("conservation OK: every offered packet is accounted "
                "(transmitted, backlogged, dropped by cause, or "
                "abandoned)\n");
  }

  const obs::telemetry::TelemetrySnapshot tsnap = telemetry.snapshot();
  {
    const obs::telemetry::HistogramSnapshot delay =
        tsnap.hist_total(obs::telemetry::HistId::kQueueDelay);
    const obs::telemetry::HistogramSnapshot dwell =
        tsnap.hist_total(obs::telemetry::HistId::kIngressDwell);
    if (delay.count > 0)
      std::printf("latency    enqueue->tx p50 %.3f ms, p99 %.3f ms, max "
                  "%.3f ms; ingress dwell p99 %.3f ms\n",
                  1e3 * delay.quantile_s(0.50), 1e3 * delay.quantile_s(0.99),
                  1e3 * delay.max_s(), 1e3 * dwell.quantile_s(0.99));
  }

  // Wall-clock fairness: worst normalized service gap over snapshot windows
  // in the steady middle of the run vs the Theorem-1 bound (+ one pacing
  // quantum per flow for in-flight attribution at window edges).
  bool fairness_ok = true;
  if (snapshots.size() >= 4 && args.flows >= 2) {
    const std::size_t lo = snapshots.size() / 4;
    const std::size_t hi = snapshots.size() - snapshots.size() / 4;
    double worst = 0.0;
    std::size_t worst_f = 0, worst_m = 1;
    for (std::size_t f = 0; f < args.flows; ++f) {
      for (std::size_t m = f + 1; m < args.flows; ++m) {
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t j = i + 1; j < hi; ++j) {
            const double df = snapshots[j][f] - snapshots[i][f];
            const double dm = snapshots[j][m] - snapshots[i][m];
            const double gap =
                std::fabs(df / args.weights[f] - dm / args.weights[m]);
            if (gap > worst) {
              worst = gap;
              worst_f = f;
              worst_m = m;
            }
          }
        }
      }
    }
    const double bound = stats::sfq_fairness_bound(
        args.packet_bits, args.weights[worst_f], args.packet_bits,
        args.weights[worst_m]);
    const double slack = bound;  // one in-flight quantum per flow
    // Injected faults legitimately distort snapshot timing (a paused
    // dispatcher or a frozen clock breaks the continuously-backlogged
    // premise), so with a fault plan the verdict is informational only.
    const bool gate = args.fault_plan.empty();
    std::printf("fairness  worst |dW_%zu/r - dW_%zu/r| = %.4g ms, "
                "Theorem-1 bound %.4g ms (+%.4g slack): %s%s\n",
                worst_f, worst_m, 1e3 * worst, 1e3 * bound, 1e3 * slack,
                worst <= bound + slack ? "OK" : "VIOLATED",
                gate ? "" : " (informational: faults injected)");
    fairness_ok = !gate || worst <= bound + slack;
  }

  if (!args.metrics_path.empty()) {
    // Fold the telemetry plane into the registry so the dump carries both
    // catalogues (trace-derived flow metrics + hot-path engine telemetry).
    obs::telemetry::bridge_to_registry(tsnap, registry);
    std::ofstream out(args.metrics_path);
    out << registry.json() << "\n";
  }

  bool ok = fairness_ok && conserve_ok;
  if (engine.stalled()) {
    std::printf("WATCHDOG: PERMANENT STALL — %llu stall(s), %llu "
                "recovered; restart budget %u exhausted wedged at stage "
                "%s; engine stopped cleanly (backlog %llu left visible)\n",
                static_cast<unsigned long long>(st.stalls),
                static_cast<unsigned long long>(st.recoveries),
                args.restart_budget, rt::to_string(st.last_stall_stage),
                static_cast<unsigned long long>(st.backlog));
    ok = false;
  } else if (st.stalls > 0) {
    std::printf("WATCHDOG: recovered — %llu stall(s) detected (last stage "
                "%s), %llu recovery(ies); service resumed and the run "
                "completed\n",
                static_cast<unsigned long long>(st.stalls),
                rt::to_string(st.last_stall_stage),
                static_cast<unsigned long long>(st.recoveries));
  }
  if (checker) {
    std::printf("invariants: %s\n", checker->report().c_str());
    ok = ok && checker->ok();
  }
  return ok ? 0 : 1;
}
