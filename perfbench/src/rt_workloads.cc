// rt workloads: rt_blast and rt_paced_1m through rt::RtEngine, rt_overload
// through rt::ShardedEngine. Arrivals are generated from the seed before
// any timing starts; producer threads only replay them.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/sfq_scheduler.h"
#include "net/rate_profile.h"
#include "obs/telemetry/telemetry.h"
#include "probes.h"
#include "replays.h"
#include "rt/engine.h"
#include "rt/shard/sharded_engine.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sfq::FlowId;
using sfq::Packet;
namespace rt = sfq::rt;
namespace tel = sfq::obs::telemetry;
using sfq::obs::DropCause;

constexpr double kInfiniteLink = 1e15;  // bits/s: unpaced, dispatch-bound
constexpr std::size_t kRing = 1 << 14;
constexpr int kSetupTrials = 30;

constexpr double kBackoffNs = 5000.0;  // producer pause on a full ring
// An open-loop repetition whose offers ran this late at p99 is flagged.
constexpr double kLateFlagUs = 1000.0;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

uint64_t drops(const rt::EngineStats& st, DropCause c) {
  return st.drops[static_cast<std::size_t>(c)];
}

// One arrival of a pre-generated schedule. `due` is seconds after the
// start of the measured phase (ignored by closed-loop producers).
struct Arrival {
  uint32_t flow = 0;
  uint32_t bits = 0;
  double due = 0.0;
};
using Schedule = std::vector<std::vector<Arrival>>;  // [producer]

// Per-producer record, written only by its producer thread.
struct ProducerLog {
  uint64_t offered = 0;       // attempts resolved (pushed or closed)
  uint64_t closed = 0;        // refused because the engine stopped
  uint64_t backpressure = 0;  // try_offer found the ring full
  SampledTimer offer;
  std::vector<double> late_s;  // open loop: how late each offer was
};

// Replays `arrivals` into producer slot `slot`. Closed loop offers back to
// back; open loop waits for each due time (calling `idle(now)` while it
// waits). A full ring is retried until it accepts, so every packet is
// offered exactly once.
template <typename Idle>
void produce(rt::IngressTarget& eng, std::size_t slot,
             const std::vector<Arrival>& arrivals, bool open, double t0,
             bool timed, ProducerLog& log, Idle&& idle) {
  if (open) log.late_s.reserve(arrivals.size());
  Packet p;
  uint64_t seq = 0;
  for (const Arrival& a : arrivals) {
    p.flow = a.flow;
    p.seq = ++seq;
    p.length_bits = a.bits;
    if (open) {
      const double due = t0 + a.due;
      double now = now_s();
      while (now < due) {
        idle(now);
        now = now_s();
      }
      log.late_s.push_back(now - due);
    }
    for (;;) {
      const rt::OfferStatus s =
          timed_call(timed, log.offer, [&] { return eng.try_offer(slot, p); });
      if (s == rt::OfferStatus::kAccepted) break;
      if (s == rt::OfferStatus::kClosed) {
        eng.offer(slot, p);  // counted as an ingress drop
        ++log.closed;
        break;
      }
      ++log.backpressure;
      // Back off before retrying a full ring: a producer re-polling at
      // full speed keeps pulling the ring's index lines away from the
      // dispatcher and slows the very consumer it waits for. The ring
      // holds milliseconds of packets, so the pause never starves it.
      spin_ns(kBackoffNs);
    }
    ++log.offered;
  }
}

// The exact conservation identities of rt/engine.h, checked on one ledger.
void check_ledger(const rt::EngineStats& st, const std::string& where,
                  Report& rep) {
  const uint64_t pre = drops(st, DropCause::kUnknownFlow) +
                       drops(st, DropCause::kBufferLimit) +
                       drops(st, DropCause::kShed);
  const uint64_t post =
      drops(st, DropCause::kPushout) + drops(st, DropCause::kFlowRemoved);
  if (st.ingress_pushed + st.migrated_in != st.accepted + pre + st.abandoned)
    rep.fail(where + ": pushed + migrated_in != accepted + pre-drops + abandoned");
  if (st.accepted != st.transmitted + st.backlog + post + st.migrated_out)
    rep.fail(where + ": accepted != transmitted + backlog + post-drops + migrated_out");
  if (st.backlog != 0) rep.fail(where + ": backlog left after drain");
}

// Histogram quantile in microseconds.
double q_us(const tel::HistogramSnapshot& h, double q) {
  return h.empty() ? 0.0 : h.quantile_ns(q) * 1e-3;
}

// Everything one repetition measured.
struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;      // measured phase: go -> last packet resolved
  double disp_cpu_s = 0.0;  // CPU of the threads start() created
  std::size_t disp_threads = 0;
  rt::EngineStats st;
  uint64_t offered = 0;
  uint64_t backpressure = 0;
  double offer_ns = 0.0;
  double late_p99_us = 0.0;
  double lat_p50_us = 0.0, lat_p99_us = 0.0, dwell_p50_us = 0.0;
  // In-place per-call ns and per-packet ns totals (traced only).
  double enq_ns = 0.0, deq_ns = 0.0, cmp_ns = 0.0, fin_ns = 0.0;
  double sched_pkt_ns = 0.0, fin_pkt_ns = 0.0;
  double backlog_mean = 0.0;
  double goodput_frac = 0.0;
  // rt_overload only.
  double tx_share_err = 0.0;
  double shedding_time_frac = 0.0;
  // Steady-half service per unit weight, lowest and highest flow over the
  // flows' mean: 1 and 1 when every flow got its weighted share.
  double service_min = 0.0, service_max = 0.0;
};

double late_p99_us(const std::vector<ProducerLog>& logs) {
  std::vector<double> all;
  for (const ProducerLog& l : logs)
    all.insert(all.end(), l.late_s.begin(), l.late_s.end());
  return all.empty() ? 0.0 : quantile(std::move(all), 0.99) * 1e6;
}

void fold_producers(const std::vector<ProducerLog>& logs, double clock_ns,
                    Rep& r) {
  SampledTimer offer;
  for (const ProducerLog& l : logs) {
    r.offered += l.offered;
    r.backpressure += l.backpressure;
    offer.calls += l.offer.calls;
    offer.samples += l.offer.samples;
    offer.sampled_ns += l.offer.sampled_ns;
  }
  r.offer_ns = offer.per_call_ns(clock_ns);
  r.late_p99_us = late_p99_us(logs);
}

void fold_sched(const std::vector<ForwardingScheduler*>& fwds,
                const TimedRateProfile* prof, double clock_ns,
                uint64_t packets, Rep& r) {
  SampledTimer enq, deq, cmp;
  double backlog = 0.0;
  for (const ForwardingScheduler* f : fwds) {
    for (auto [dst, src] : {std::pair{&enq, &f->enqueue_},
                            std::pair{&deq, &f->dequeue_},
                            std::pair{&cmp, &f->complete_}}) {
      dst->calls += src->calls;
      dst->samples += src->samples;
      dst->sampled_ns += src->sampled_ns;
    }
    backlog += f->backlog_mean();
  }
  r.enq_ns = enq.per_call_ns(clock_ns);
  r.deq_ns = deq.per_call_ns(clock_ns);
  r.cmp_ns = cmp.per_call_ns(clock_ns);
  r.backlog_mean = fwds.empty() ? 0.0 : backlog / fwds.size();
  const double n = static_cast<double>(std::max<uint64_t>(packets, 1));
  r.sched_pkt_ns = (enq.total_ns(clock_ns) + deq.total_ns(clock_ns) +
                    cmp.total_ns(clock_ns)) / n;
  if (prof != nullptr) {
    r.fin_ns = prof->finish_.per_call_ns(clock_ns);
    r.fin_pkt_ns = prof->finish_.total_ns(clock_ns) / n;
  }
}

double cpu_of(const std::vector<pid_t>& tids) {
  double s = 0.0;
  for (pid_t t : tids) s += std::max(0.0, thread_cpu_s(t));
  return s;
}

// Waits until `resolved()` covers every offered packet (the dispatchers
// drained the rings and the backlog) or the timeout passes.
template <typename Resolved>
bool wait_drained(Resolved&& resolved, double timeout_s) {
  const double until = now_s() + timeout_s;
  while (!resolved()) {
    if (now_s() > until) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

// One repetition's engine lifecycle, shared by every rt workload (Engine is
// rt::RtEngine or rt::ShardedEngine). start() runs the engine under the
// placement and closes set-up, begin() opens the measured phase, finish()
// waits until every offered packet is resolved, stops the engine, folds
// the producers' and probes' timers, reads the telemetry plane and checks
// the ledgers.
template <typename Engine>
class EngineRun {
 public:
  EngineRun(Engine& engine, const tel::Telemetry& plane, const Placement& pl,
            std::size_t dispatchers, Rep& r)
      : engine_(engine), plane_(plane), pl_(pl), dispatchers_(dispatchers),
        r_(r) {}

  // `s0`: when set-up began. The dispatchers inherit the placement's
  // dispatch mask from this thread. Once they run, dispatcher k is narrowed
  // to its own CPU and background threads to the main mask: start() creates
  // the dispatchers first, in shard order, so they hold the lowest new
  // thread ids.
  void start(double s0) {
    set_thread_mask(pl_.dispatch_mask);
    const std::vector<pid_t> before = list_tasks();
    engine_.start();
    threads_ = new_tasks(before, list_tasks());
    r_.setup_s = now_s() - s0;
    for (std::size_t i = 0; i < threads_.size(); ++i)
      set_task_mask(threads_[i], i < pl_.dispatcher_cpu.size()
                                     ? std::vector<int>{pl_.dispatcher_cpu[i]}
                                     : pl_.main_mask);
    set_thread_mask(pl_.main_mask);
  }

  // Thread id of dispatcher k (0 when the engine started fewer threads).
  pid_t dispatcher(std::size_t k) const {
    return k < dispatchers_ && k < threads_.size() ? threads_[k] : 0;
  }

  // Returns the measured phase's start, `lead_s` from now.
  double begin(double lead_s) {
    cpu0_ = cpu_of(threads_);
    return now_s() + lead_s;
  }

  // `total`: packets the schedule offers. `allow_drops`: shed and
  // buffer-limit drops resolve a packet too (rt_overload); otherwise every
  // offered packet must be transmitted.
  void finish(double t0, uint64_t total, bool allow_drops,
              const std::vector<ProducerLog>& logs,
              const std::vector<ForwardingScheduler*>& fwds,
              const TimedRateProfile* prof, double clock_ns, Report& rep) {
    const bool drained = wait_drained(
        [&] {
          const rt::EngineStats s = engine_.stats();
          return s.transmitted + s.dropped() + s.ingress_drops >= total;
        },
        30.0);
    const double t1 = now_s();
    r_.disp_cpu_s = cpu_of(threads_) - cpu0_;
    r_.disp_threads = dispatchers_;
    engine_.stop(rt::StopMode::kDrain);
    set_thread_mask(allowed_cpus());
    r_.wall_s = t1 - t0;
    r_.st = engine_.stats();
    fold_producers(logs, clock_ns, r_);
    if (!fwds.empty()) fold_sched(fwds, prof, clock_ns, r_.st.transmitted, r_);

    const tel::TelemetrySnapshot snap = plane_.snapshot();
    const tel::HistogramSnapshot qd = snap.hist_total(tel::HistId::kQueueDelay);
    r_.lat_p50_us = q_us(qd, 0.5);
    r_.lat_p99_us = q_us(qd, 0.99);
    r_.dwell_p50_us = q_us(snap.hist_total(tel::HistId::kIngressDwell), 0.5);

    // Exact ledgers (per shard and summed on the sharded engine), every
    // offered packet resolved, telemetry mirrors the ledger.
    const std::string where = r_.traced ? "traced rep" : "rep";
    if (!drained) rep.fail(where + ": engine did not drain within 30 s");
    if (r_.offered != r_.st.ingress_pushed + r_.st.ingress_drops)
      rep.fail(where + ": offers != ingress_pushed + ingress_drops");
    if constexpr (std::is_same_v<Engine, rt::ShardedEngine>) {
      for (std::size_t k = 0; k < engine_.shards(); ++k)
        check_ledger(engine_.shard_stats(k), where + " shard " + std::to_string(k), rep);
      check_ledger(r_.st, where + " global", rep);
    } else {
      check_ledger(r_.st, where, rep);
    }
    const uint64_t allowed =
        allow_drops ? drops(r_.st, DropCause::kShed) +
                          drops(r_.st, DropCause::kBufferLimit)
                    : 0;
    const uint64_t ok = r_.st.transmitted + allowed;
    rep.offered += total;
    if (ok != total) {
      rep.failed_packets += total > ok ? total - ok : ok - total;
      rep.fail(where + ": " + std::to_string(total) + " offered, " +
               std::to_string(r_.st.transmitted) + " transmitted + " +
               std::to_string(allowed) + " allowed drops");
    }
    if (qd.count != r_.st.transmitted)
      rep.fail(where + ": rt.queue_delay count != transmitted");
  }

 private:
  Engine& engine_;
  const tel::Telemetry& plane_;
  const Placement& pl_;
  std::size_t dispatchers_;
  Rep& r_;
  std::vector<pid_t> threads_;  // every thread start() created
  double cpu0_ = 0.0;
};

// ---------------------------------------------------------------------------
// Single-dispatcher workloads (rt_blast, rt_paced_1m).

struct SingleSpec {
  std::vector<double> weights;  // per flow, bits/s
  double max_bits = 0.0;        // l_max of every flow
  bool wheel = false;
  double wheel_quantum = 0.0;
  bool open = false;  // open-loop (paced by due times) vs closed loop
};

Rep run_single(const SingleSpec& spec, const Schedule& sched_in,
               const std::vector<double>& expected_bits, const Options& opt,
               const Placement& pl, bool traced, double clock_ns,
               Report& rep) {
  Rep r;
  r.traced = traced;
  const std::size_t producers = sched_in.size();
  const double s0 = now_s();

  sfq::SfqOptions so;
  so.core = spec.wheel ? sfq::SfqCore::kWheel : sfq::SfqCore::kHeap;
  so.wheel_quantum = spec.wheel_quantum;
  auto sfq_sched = std::make_unique<sfq::SfqScheduler>(so);
  sfq_sched->reserve_flows(spec.weights.size());
  std::unique_ptr<sfq::Scheduler> sched;
  ForwardingScheduler* fwd = nullptr;
  if (traced || opt.inject_enqueue_ns >= 0.0) {
    auto f = std::make_unique<ForwardingScheduler>(
        std::move(sfq_sched), traced, std::max(0.0, opt.inject_enqueue_ns));
    f->reserve_flows(spec.weights.size());
    fwd = f.get();
    sched = std::move(f);
  } else {
    sched = std::move(sfq_sched);
  }
  for (double w : spec.weights) sched->add_flow(w, spec.max_bits);

  std::unique_ptr<sfq::net::RateProfile> profile =
      std::make_unique<sfq::net::ConstantRate>(kInfiniteLink);
  TimedRateProfile* tprof = nullptr;
  if (traced) {
    auto t = std::make_unique<TimedRateProfile>(std::move(profile));
    tprof = t.get();
    profile = std::move(t);
  }
  tel::Telemetry plane;
  rt::EngineOptions eo;
  eo.producers = producers;
  eo.ring_capacity = kRing;
  rt::RtEngine engine(*sched, std::move(profile), eo);
  engine.set_telemetry(&plane);
  EngineRun<rt::RtEngine> run(engine, plane, pl, 1, r);
  // Set-up ends once the engine runs; the benchmark's own producer threads
  // are load generator, not system, so their start is not counted.
  run.start(s0);

  std::vector<ProducerLog> logs(producers);
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  double t0 = 0.0;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < producers; ++i) {
    threads.emplace_back([&, i] {
      if (i < pl.producer_cpu.size()) set_thread_mask({pl.producer_cpu[i]});
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) cpu_relax();
      produce(engine, i, sched_in[i], spec.open, t0, traced, logs[i],
              [](double) {});
    });
  }
  while (ready.load() < producers) std::this_thread::yield();

  t0 = run.begin(spec.open ? 1e-3 : 0.0);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  uint64_t total = 0;
  for (const auto& v : sched_in) total += v.size();
  run.finish(t0, total, /*allow_drops=*/false, logs,
             fwd ? std::vector<ForwardingScheduler*>{fwd}
                 : std::vector<ForwardingScheduler*>{},
             tprof, clock_ns, rep);

  // Per-flow service equal to what was offered.
  const std::string where = traced ? "traced rep" : "rep";
  std::size_t flow_mismatch = 0;
  for (std::size_t f = 0; f < expected_bits.size(); ++f)
    if (engine.flow_tx_bits(static_cast<FlowId>(f)) != expected_bits[f])
      ++flow_mismatch;
  if (flow_mismatch)
    rep.fail(where + ": " + std::to_string(flow_mismatch) +
             " flows served other than offered");
  return r;
}

// The traced run must leave the same ledger as the untraced one.
void check_same_ledger(const std::vector<Rep>& reps, Report& rep) {
  const Rep* base = nullptr;
  for (const Rep& r : reps) {
    if (r.traced) continue;
    base = &r;
    break;
  }
  if (base == nullptr) return;
  for (const Rep& r : reps) {
    if (!r.traced) continue;
    if (r.st.ingress_pushed != base->st.ingress_pushed ||
        r.st.accepted != base->st.accepted ||
        r.st.transmitted != base->st.transmitted ||
        r.st.dropped() != base->st.dropped() ||
        r.st.tx_bits != base->st.tx_bits)
      rep.fail("traced ledger differs from the untraced ledger");
  }
}

// End-to-end metrics shared by every rt workload. setup_s is the median of
// every set-up in the run: the measured repetitions' and `extra_setups`.
void rt_end_to_end(const std::vector<Rep>& reps,
                   std::vector<double> setups, Report& rep) {
  const double pps = med(reps, false, [](const Rep& r) {
    return static_cast<double>(r.st.transmitted) / r.wall_s;
  });
  rep.e2e("max_pps", pps, "pkt/s");
  rep.e2e("lat_p50_us", med(reps, false, [](const Rep& r) { return r.lat_p50_us; }), "us");
  rep.e2e("goodput_frac", med(reps, false, [](const Rep& r) { return r.goodput_frac; }), "frac");
  rep.e2e("sim_pps", pps, "pkt/s");  // one hop: packet-hops == packets
  for (const Rep& r : reps)
    if (!r.traced) setups.push_back(r.setup_s);
  char line[160];
  std::snprintf(line, sizeof line,
                "setup_s over %zu set-ups: min %.4g p25 %.4g p50 %.4g p75 %.4g",
                setups.size(), quantile(setups, 0.0), quantile(setups, 0.25),
                quantile(setups, 0.5), quantile(setups, 0.75));
  rep.notes.push_back(line);
  rep.e2e("setup_s", median(std::move(setups)), "s");
}

// Per-layer metrics every rt workload reports from its traced reps, and
// the dispatcher-side ledger: layers + residual == dispatch_ns_per_pkt.
struct LayerReplays {
  double pop_ns = 0.0;
  double active_ns = 0.0;
  double timer_ns = 0.0;  // event queue at depth 1
  double record_ns = 0.0;
  double inc_ns = 0.0;
  double route_ns = 0.0;  // sharded workloads only
};

// Telemetry calls the dispatcher makes per packet: the queue-delay record
// on every transmission plus the 1-in-8 sampled dwell and lag records, and
// one counter increment per accepted packet (transmit counters are flushed
// once per batch).
constexpr double kRecordsPerPkt = 1.0 + 2.0 / 8.0;
constexpr double kIncsPerPkt = 1.0;

void rt_per_layer(const std::vector<Rep>& reps, const LayerReplays& lr,
                  const std::string& headline, Report& rep) {
  auto t = [&](auto f) { return med(reps, true, f); };
  // The dispatcher's cost comes from the untraced repetitions, so the
  // in-place timers' own cost does not land in the residual.
  const double dispatch = med(reps, false, [](const Rep& r) {
    return r.disp_cpu_s * 1e9 / std::max<double>(1.0, r.st.transmitted);
  });
  const double sched_pkt = t([](const Rep& r) { return r.sched_pkt_ns; });
  const double fin_pkt = t([](const Rep& r) { return r.fin_pkt_ns; });
  const double layers = lr.pop_ns + lr.active_ns + sched_pkt + fin_pkt +
                        lr.timer_ns + kRecordsPerPkt * lr.record_ns +
                        kIncsPerPkt * lr.inc_ns;
  rep.layer("rt.ingress.offer_ns", t([](const Rep& r) { return r.offer_ns; }), "ns");
  rep.layer("rt.ingress.pop_ns", lr.pop_ns, "ns");
  rep.layer("rt.ingress.backpressure_per_kpkt", t([](const Rep& r) {
              return 1e3 * r.backpressure / std::max<double>(1.0, r.offered);
            }), "count");
  rep.layer("rt.ingress.dwell_p50_us", t([](const Rep& r) { return r.dwell_p50_us; }), "us");
  rep.layer("core.sched.enqueue_ns", t([](const Rep& r) { return r.enq_ns; }), "ns");
  rep.layer("core.sched.dequeue_ns", t([](const Rep& r) { return r.deq_ns; }), "ns");
  rep.layer("core.sched.complete_ns", t([](const Rep& r) { return r.cmp_ns; }), "ns");
  rep.layer("core.sched.backlog_mean", t([](const Rep& r) { return r.backlog_mean; }), "pkt");
  rep.layer("core.flow_table.active_ns", lr.active_ns, "ns");
  rep.layer("net.rate_profile.finish_ns", t([](const Rep& r) { return r.fin_ns; }), "ns");
  rep.layer("sim.event_queue.cycle_ns", lr.timer_ns, "ns");
  rep.layer("obs.telemetry.record_ns", lr.record_ns, "ns");
  rep.layer("obs.telemetry.inc_ns", lr.inc_ns, "ns");
  if (lr.route_ns > 0.0) rep.layer("rt.shard.route_ns", lr.route_ns, "ns");
  rep.layer("rt.engine.dispatch_ns_per_pkt", dispatch, "ns");
  rep.layer("rt.engine.layers_ns_per_pkt", layers, "ns");
  rep.layer("rt.engine.residual_ns", dispatch - layers, "ns");
  rep.layer("rt.engine.cpu_frac", med(reps, false, [](const Rep& r) {
              return r.disp_cpu_s / (r.wall_s * std::max<std::size_t>(1, r.disp_threads));
            }), "frac");
  rep.layer("rt.engine.lat_p99_us", t([](const Rep& r) { return r.lat_p99_us; }), "us");
  rep.layer("rt.engine.service_lag_max_us", t([](const Rep& r) {
              return r.st.max_service_lag * 1e6;
            }), "us");
  auto frac = [&](DropCause c) {
    return t([c](const Rep& r) {
      return static_cast<double>(drops(r.st, c)) / std::max<double>(1.0, r.offered);
    });
  };
  rep.layer("rt.engine.shed_frac", frac(DropCause::kShed), "frac");
  rep.layer("rt.engine.pushout_frac", frac(DropCause::kPushout), "frac");
  rep.layer("rt.engine.shedding_time_frac", t([](const Rep& r) { return r.shedding_time_frac; }), "frac");
  rep.layer("rt.shard.tx_share_err", t([](const Rep& r) { return r.tx_share_err; }), "frac");
  rep.layer("gen.late_p99_us", t([](const Rep& r) { return r.late_p99_us; }), "us");

  // Tracing overhead on the workload's headline end-to-end figure.
  double overhead = 0.0;
  if (headline == "max_pps") {
    auto pps = [](const Rep& r) { return r.st.transmitted / r.wall_s; };
    overhead = 1.0 - med(reps, true, pps) / med(reps, false, pps);
  } else {
    auto lat = [](const Rep& r) { return r.lat_p50_us; };
    overhead = med(reps, true, lat) / med(reps, false, lat) - 1.0;
  }
  rep.layer("trace.overhead_frac", overhead, "frac");

  char line[512];
  std::snprintf(line, sizeof line,
                "ledger per packet (ns): pop %.1f + flow_table %.1f + sched %.1f"
                " + rate_profile %.1f + timer %.1f + telemetry %.1f"
                " = layers %.1f; residual %.1f; dispatch %.1f",
                lr.pop_ns, lr.active_ns, sched_pkt, fin_pkt, lr.timer_ns,
                kRecordsPerPkt * lr.record_ns + kIncsPerPkt * lr.inc_ns,
                layers, dispatch - layers, dispatch);
  rep.notes.push_back(line);
}

// `shards` == 0: a single engine, no router on the path.
LayerReplays replay_layers(std::size_t producers, std::size_t table_size,
                           const std::vector<uint32_t>& flow_seq,
                           std::size_t shards, uint64_t seed) {
  LayerReplays lr;
  lr.pop_ns = replay_ingress_pop_ns(producers);
  lr.active_ns = replay_flow_table_active_ns(table_size, flow_seq);
  lr.timer_ns = replay_event_queue_cycle_ns(1, seed);
  lr.record_ns = replay_telemetry_record_ns(seed);
  lr.inc_ns = replay_telemetry_inc_ns();
  if (shards > 0) lr.route_ns = replay_route_ns(shards, flow_seq);
  return lr;
}

std::vector<uint32_t> flow_sequence(const Schedule& s, std::size_t cap) {
  std::vector<uint32_t> seq;
  for (std::size_t k = 0; seq.size() < cap; ++k) {
    bool any = false;
    for (const auto& v : s)
      if (k < v.size()) {
        seq.push_back(v[k].flow);
        any = true;
      }
    if (!any) break;
  }
  return seq;
}

// `exact`: the workload allows no drops, so every repetition leaves the
// same ledger and traced and untraced ledgers must match.
void rt_common_metrics(const std::vector<Rep>& reps,
                       const std::vector<double>& extra_setups,
                       const Options& opt, const LayerReplays& lr,
                       const std::string& headline, bool exact, Report& rep) {
  if (exact) check_same_ledger(reps, rep);
  if (opt.trace) rt_per_layer(reps, lr, headline, rep);
  else rt_end_to_end(reps, extra_setups, rep);
  std::string per_rep;
  for (const Rep& r : reps) {
    char v[48];
    std::snprintf(v, sizeof v, " %s%.4g", r.traced ? "t" : "",
                  headline == "max_pps" ? r.st.transmitted / r.wall_s
                                        : r.lat_p50_us);
    per_rep += v;
  }
  rep.notes.push_back(headline + " per repetition (t = traced):" + per_rep);
  int late = 0;
  for (const Rep& r : reps) late += r.late_p99_us > kLateFlagUs ? 1 : 0;
  if (late)
    rep.notes.push_back("generator fell behind (late p99 > 1 ms) in " +
                        std::to_string(late) + " of " +
                        std::to_string(reps.size()) + " repetitions");
  rep.notes.push_back("repetitions: " + rep_counts(reps));
}

}  // namespace

// ---------------------------------------------------------------------------

Report run_rt_blast(const Options& opt) {
  // 8 flows, weights 1:1:2:2:4:4:8:8, 64-byte packets, two closed-loop
  // producers (flow f on producer f % 2) offering 2^20 packets per rep.
  constexpr std::size_t kProducers = 2;
  constexpr std::size_t kPerProducer = 1 << 19;
  constexpr uint32_t kBits = 512;
  SingleSpec spec;
  for (double w : {1, 1, 2, 2, 4, 4, 8, 8}) spec.weights.push_back(w * 1e6);
  spec.max_bits = kBits;

  Schedule schedule(kProducers);
  std::vector<double> expected(spec.weights.size(), 0.0);
  std::mt19937_64 rng = rng_for(opt.seed, 1);
  for (std::size_t i = 0; i < kProducers; ++i) {
    std::vector<uint32_t> flows;
    std::vector<double> w;
    for (std::size_t f = i; f < spec.weights.size(); f += kProducers) {
      flows.push_back(static_cast<uint32_t>(f));
      w.push_back(spec.weights[f]);
    }
    std::discrete_distribution<std::size_t> pick(w.begin(), w.end());
    schedule[i].reserve(kPerProducer);
    for (std::size_t k = 0; k < kPerProducer; ++k) {
      const uint32_t f = flows[pick(rng)];
      schedule[i].push_back({f, kBits, 0.0});
      expected[f] += kBits;
    }
  }

  const Placement pl = make_placement(kProducers, /*dispatchers=*/1);
  const double clock_ns = clock_pair_ns();
  Report rep;
  rep.notes.push_back("placement: " + pl.describe());
  const std::vector<Rep> reps = repeat(opt, [&](bool traced) {
    Rep r = run_single(spec, schedule, expected, opt, pl, traced, clock_ns, rep);
    r.goodput_frac = r.st.tx_bits / (static_cast<double>(r.offered) * kBits);
    return r;
  });
  // Set-up is a few ms here, so the run adds set-up-only trials (no
  // traffic) to steady its median.
  std::vector<double> setups;
  if (!opt.trace) {
    const Schedule none(kProducers);
    const std::vector<double> zero(spec.weights.size(), 0.0);
    for (int k = 0; k < kSetupTrials; ++k)
      setups.push_back(
          run_single(spec, none, zero, opt, pl, false, clock_ns, rep).setup_s);
  }
  LayerReplays lr;
  if (opt.trace) {
    lr = replay_layers(kProducers, spec.weights.size(),
                       flow_sequence(schedule, 1 << 16), 0, opt.seed);
  }
  rt_common_metrics(reps, setups, opt, lr, "max_pps", true, rep);
  return rep;
}

Report run_rt_paced_1m(const Options& opt) {
  // 2^20 registered flows on the SFQ-W wheel, Zipf(1.0) popularity over a
  // seeded rank->id permutation, 64 B / 1500 B sizes with equal odds, and
  // Poisson arrivals at a fixed 200k pkt/s aggregate for 1 s per rep. The
  // rate leaves the dispatcher most of its time idle: at 400k pkt/s a
  // shared host's slow spells pushed it past saturation and the median
  // latency of a run ranged from 36 us to 2.3 ms.
  constexpr std::size_t kFlows = 1 << 20;
  constexpr std::size_t kProducers = 2;
  constexpr double kRate = 200e3;  // pkt/s
  constexpr double kSpan = 1.0;    // s of arrivals per rep
  constexpr double kNominal = 1e9; // bits/s: weight and quantum scale
  SingleSpec spec;
  spec.weights.assign(kFlows, kNominal / kFlows);
  spec.max_bits = 12000.0;
  spec.wheel = true;
  spec.wheel_quantum = spec.max_bits / kNominal;
  spec.open = true;

  Schedule schedule(kProducers);
  std::vector<double> expected(kFlows, 0.0);
  {
    std::mt19937_64 rng = rng_for(opt.seed, 2);
    std::vector<double> cdf(kFlows);
    double acc = 0.0;
    for (std::size_t k = 0; k < kFlows; ++k) cdf[k] = acc += 1.0 / (k + 1.0);
    for (double& c : cdf) c /= acc;
    std::vector<uint32_t> id_of_rank(kFlows);
    std::iota(id_of_rank.begin(), id_of_rank.end(), 0u);
    std::shuffle(id_of_rank.begin(), id_of_rank.end(), rng);
    std::exponential_distribution<double> gap(kRate);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::bernoulli_distribution small(0.5);
    for (double t = gap(rng); t < kSpan; t += gap(rng)) {
      const std::size_t rank =
          std::lower_bound(cdf.begin(), cdf.end(), u(rng)) - cdf.begin();
      const uint32_t f = id_of_rank[std::min(rank, kFlows - 1)];
      const uint32_t bits = small(rng) ? 512u : 12000u;
      schedule[f % kProducers].push_back({f, bits, t});
      expected[f] += bits;
    }
  }

  const double offered_bits =
      std::accumulate(expected.begin(), expected.end(), 0.0);
  const Placement pl = make_placement(kProducers, /*dispatchers=*/1);
  const double clock_ns = clock_pair_ns();
  Report rep;
  rep.notes.push_back("placement: " + pl.describe());
  const std::vector<Rep> reps = repeat(opt, [&](bool traced) {
    Rep r = run_single(spec, schedule, expected, opt, pl, traced, clock_ns, rep);
    r.goodput_frac = r.st.tx_bits / offered_bits;
    return r;
  });
  LayerReplays lr;
  if (opt.trace) {
    lr = replay_layers(kProducers, kFlows, flow_sequence(schedule, 1 << 18),
                       0, opt.seed);
  }
  rt_common_metrics(reps, {}, opt, lr, "lat_p50_us", true, rep);
  return rep;
}

Report run_rt_overload(const Options& opt) {
  // The overload soak's settings through the sharded engine: 2 SFQ shards,
  // admission control, taildrop, a 64-packet buffer per shard, the 0.1 s
  // watchdog. 8 flows (weights 1:1:2:2:3:3:4:4, CBR and Poisson
  // alternating, 1500 B packets) each offer 2.5x their share of a
  // 200 Mb/s link from one open-loop producer for 1 s per rep. At this rate
  // the tightest cross-shard bound is a few ms of normalized service, so a
  // dispatcher stall of a few ms breaches it.
  constexpr std::size_t kShards = 2;
  constexpr double kLink = 200e6;
  constexpr double kLoad = 2.5;
  constexpr double kSpan = 1.0;
  constexpr uint32_t kBits = 12000;
  constexpr double kSnapEvery = 0.01;  // fairness measurement window, s
  constexpr double kStallEvery = 0.05;  // fairness self-test stall period, s
  // How far the engine's pacing chain may run behind the wall clock and
  // catch up after a stall (kPacingCatchup in rt/engine.cc).
  constexpr double kCatchup = 1e-3;
  const std::vector<double> units = {1, 1, 2, 2, 3, 3, 4, 4};
  const double unit_sum = std::accumulate(units.begin(), units.end(), 0.0);
  std::vector<rt::ShardFlow> flows;
  for (double u : units) flows.push_back({kLink * u / unit_sum, double(kBits), ""});

  // Each repetition replays its own schedule, drawn from (seed, rep), so
  // the median over repetitions averages over arrival patterns.
  auto make_schedule = [&](uint64_t rep_index) {
    Schedule sc(1);
    std::mt19937_64 rng = rng_for(opt.seed, 3 + (rep_index << 8));
    std::uniform_real_distribution<double> phase(0.0, 1.0);
    for (std::size_t f = 0; f < flows.size(); ++f) {
      const double pps = kLoad * flows[f].weight / kBits;
      if (f % 2 == 0) {
        for (double t = phase(rng) / pps; t < kSpan; t += 1.0 / pps)
          sc[0].push_back({uint32_t(f), kBits, t});
      } else {
        std::exponential_distribution<double> gap(pps);
        for (double t = gap(rng); t < kSpan; t += gap(rng))
          sc[0].push_back({uint32_t(f), kBits, t});
      }
    }
    std::stable_sort(sc[0].begin(), sc[0].end(),
                     [](const Arrival& a, const Arrival& b) { return a.due < b.due; });
    return sc;
  };
  uint64_t rep_index = 0;

  const Placement pl = make_placement(1, kShards);
  const double clock_ns = clock_pair_ns();
  Report rep;
  rep.notes.push_back("placement: " + pl.describe());
  // Fairness windows over all repetitions in which pairs were left
  // unchecked because a dispatcher was preempted or the generator fell
  // behind, and how many of those had an unchecked pair over the bound.
  uint64_t preempted_windows = 0, preempted_breached = 0;
  uint64_t lagged_windows = 0, lagged_breached = 0;

  auto run_rep = [&](bool traced, bool setup_only = false) {
    const Schedule schedule = setup_only ? Schedule(1) : make_schedule(rep_index++);
    const uint64_t total = schedule[0].size();
    Rep r;
    r.traced = traced;
    const double s0 = now_s();
    std::vector<ForwardingScheduler*> fwds;
    std::vector<ForwardingScheduler*> by_shard(kShards, nullptr);
    // Always the forwarding scheduler here (untimed unless traced): the
    // fairness check needs each flow's backlog transitions. The workload
    // is link-bound, so the extra call layer does not move its figures.
    auto factory = [&](std::size_t shard, double) -> std::unique_ptr<sfq::Scheduler> {
      auto f = std::make_unique<ForwardingScheduler>(
          std::make_unique<sfq::SfqScheduler>(), traced,
          std::max(0.0, opt.inject_enqueue_ns));
      f->track_backlog(flows.size());
      f->track_heartbeat(kCatchup);
      if (shard == 0 && opt.inject_stall_ms > 0.0)
        f->inject_stall(opt.inject_stall_ms * 1e-3, kStallEvery);
      fwds.push_back(f.get());
      if (shard < kShards) by_shard[shard] = f.get();
      return f;
    };
    rt::ShardedEngineOptions so;
    so.shards = kShards;
    so.link_rate = kLink;
    so.engine.producers = 1;
    so.engine.ring_capacity = kRing;
    so.engine.buffer_limit = 64;
    so.engine.overload_policy = sfq::net::OverloadPolicy::kTailDrop;
    so.engine.admission_control = true;
    so.engine.stall_timeout = 0.1;
    so.engine.restart_budget = 3;
    rt::ShardedEngine engine(factory, flows, so);
    tel::Telemetry plane(tel::TelemetryOptions{kShards});
    engine.set_telemetry(&plane);
    EngineRun<rt::ShardedEngine> run(engine, plane, pl, kShards, r);
    run.start(s0);
    if (!pl.producer_cpu.empty()) set_thread_mask({pl.producer_cpu[0]});

    // The main thread is the producer; while it waits for due times it
    // samples, every kSnapEvery, per-flow service and backlog, each shard
    // dispatcher's heartbeat and block state, and the overload state.
    struct Snap {
      std::size_t offers = 0;  // offers made so far
      std::vector<TaskState> state;  // [shard]
      std::vector<uint64_t> absences;
      std::vector<char> absent;
      std::vector<double> bits;
      std::vector<uint32_t> held, idle;
    };
    std::vector<Snap> snaps;
    uint64_t ov_samples = 0, ov_shedding = 0;
    std::vector<ProducerLog> logs(1);
    const double t0 = run.begin(1e-3);
    double next_snap = t0;
    produce(engine, 0, schedule[0], true, t0, traced, logs[0], [&](double now) {
      if (now < next_snap) return;
      Snap sn;
      sn.offers = logs[0].late_s.size();
      const double t = now_s();
      for (std::size_t k = 0; k < kShards; ++k) {
        sn.state.push_back(task_state(run.dispatcher(k)));
        sn.absences.push_back(by_shard[k] ? by_shard[k]->absences() : 0);
        sn.absent.push_back(by_shard[k] && by_shard[k]->absent(t));
      }
      sn.bits = engine.service_snapshot();
      for (std::size_t f = 0; f < flows.size(); ++f) {
        uint32_t held = 0, idle = 0;
        for (const ForwardingScheduler* w : fwds) {
          held += w->held(FlowId(f));
          idle += w->idle_count(FlowId(f));
        }
        sn.held.push_back(held);
        sn.idle.push_back(idle);
      }
      snaps.push_back(std::move(sn));
      ++ov_samples;
      if (engine.overload_state() != 0) ++ov_shedding;
      next_snap += kSnapEvery;
    });
    run.finish(t0, total, /*allow_drops=*/true, logs, fwds, nullptr, clock_ns, rep);
    r.shedding_time_frac = ov_samples ? double(ov_shedding) / ov_samples : 0.0;
    r.goodput_frac = r.st.tx_bits / (kLink * r.wall_s);
    double wsum = 0.0;
    for (std::size_t k = 0; k < kShards; ++k) wsum += engine.shard_weight(k);
    for (std::size_t k = 0; k < kShards; ++k) {
      const double want = engine.shard_weight(k) / wsum;
      const double got = engine.shard_stats(k).tx_bits / std::max(1.0, r.st.tx_bits);
      r.tx_share_err = std::max(r.tx_share_err, std::fabs(got - want) / want);
    }

    // Theorem 1 (same shard) and eq. 65 (across shards) in every
    // steady-state measurement window, over the pairs backlogged throughout.
    // Eq. 65 treats each shard as a virtual server that divides its share
    // of the link among its flows by weight, so a cross-shard pair is
    // checked only while every flow of both shards stays backlogged: an
    // idle flow's share goes to its shard's other flows, which hierarchical
    // sharing allows.
    //
    // Eq. 65 also needs each shard's server to run, and a dispatcher runs
    // only while it has a CPU. The forwarding scheduler's heartbeat shows
    // when a backlogged dispatcher came back more than kCatchup late (what
    // the engine's pacing catches up); if it did not block meanwhile, it
    // was preempted (in a guest, usually its vCPU stolen by the host), and
    // the guest's own CPU accounting learns of stolen time too late to
    // measure it per window. Cross-shard pairs are not checked in such a
    // window or the one after it (the catch-up), but counted. A dispatcher
    // that blocked (a voluntary switch, or asleep when the window opened)
    // stalled by its own doing and is checked. Theorem 1 holds on any
    // server, so same-shard pairs are always checked.
    //
    // The inputs are the seed's only while the generator keeps to its due
    // times. A generator that fell behind (the host took its CPU) offers
    // its late packets in one burst after a gap in which a shard may have
    // drained, which is not the seeded arrival process; a window in which,
    // or in the window before which, an offer ran more than kLateFlagUs
    // late is counted and reported but not checked.
    auto late_between = [&](std::size_t i, std::size_t j) {
      double w = 0.0;
      for (std::size_t n = snaps[i].offers; n < snaps[j].offers; ++n)
        w = std::max(w, logs[0].late_s[n]);
      return w;
    };
    // Dispatcher k missed its heartbeat in window w without blocking.
    auto preempted = [&](std::size_t w, std::size_t k) {
      const Snap& x = snaps[w];
      const Snap& y = snaps[w + 1];
      const bool missed =
          y.absences[k] != x.absences[k] || x.absent[k] || y.absent[k];
      const bool blocked =
          x.state[k].asleep || y.state[k].blocked != x.state[k].blocked;
      return missed && !blocked;
    };
    const std::string where = traced ? "traced rep" : "rep";
    const std::size_t lo = snaps.size() / 4, hi = snaps.size() - snaps.size() / 4;
    double worst = 0.0;
    char worst_pair[96] = "";
    for (std::size_t i = lo; i + 1 < hi; ++i) {
      const Snap& a = snaps[i];
      const Snap& b = snaps[i + 1];
      // Theorem 1 covers intervals in which both flows stay backlogged.
      auto backlogged = [&](std::size_t f) {
        return a.held[f] > 0 && a.idle[f] == b.idle[f];
      };
      std::vector<bool> shard_busy(kShards, true);
      for (std::size_t g = 0; g < flows.size(); ++g)
        if (!backlogged(g)) shard_busy[engine.shard_of(FlowId(g))] = false;
      bool disturbed = false;
      for (std::size_t k = 0; k < kShards; ++k)
        disturbed = disturbed || preempted(i, k) || (i > 0 && preempted(i - 1, k));
      const bool lagged =
          late_between(i > lo ? i - 1 : i, i + 1) > kLateFlagUs * 1e-6;
      bool checked = false, breach = false, skipped = false, skipped_over = false;
      for (std::size_t f = 0; f < flows.size(); ++f)
        for (std::size_t m = f + 1; m < flows.size(); ++m) {
          const std::size_t kf = engine.shard_of(FlowId(f));
          const std::size_t km = engine.shard_of(FlowId(m));
          if (!backlogged(f) || !backlogged(m)) continue;
          if (kf != km && (!shard_busy[kf] || !shard_busy[km])) continue;
          const double wf = flows[f].weight, wm = flows[m].weight;
          const double gap = std::fabs((b.bits[f] - a.bits[f]) / wf -
                                       (b.bits[m] - a.bits[m]) / wm);
          // One in-flight packet per flow of slack at the window edges, as
          // the sfq_serve verdict allows.
          const double bound = engine.fairness_bound(FlowId(f), FlowId(m)) +
                               kBits / wf + kBits / wm;
          if (lagged || (kf != km && disturbed)) {
            skipped = true;
            skipped_over = skipped_over || gap > bound;
            continue;
          }
          checked = true;
          if (gap / bound > worst) {
            worst = gap / bound;
            std::snprintf(worst_pair, sizeof worst_pair,
                          "flows %zu (shard %zu) and %zu (shard %zu)", f, kf, m, km);
          }
          breach = breach || gap > bound;
        }
      if (skipped && lagged) {
        ++lagged_windows;
        lagged_breached += skipped_over ? 1 : 0;
      } else if (skipped) {
        ++preempted_windows;
        preempted_breached += skipped_over ? 1 : 0;
      }
      if (checked) ++rep.windows;
      if (breach) ++rep.windows_breached;
    }
    if (worst > 1.0)
      rep.fail(where + ": fairness window over bound, worst gap/bound " +
               std::to_string(worst) + " between " + worst_pair);
    if (hi > lo + 1) {
      std::vector<double> per_weight;
      for (std::size_t f = 0; f < flows.size(); ++f)
        per_weight.push_back((snaps[hi - 1].bits[f] - snaps[lo].bits[f]) /
                             flows[f].weight);
      const double avg =
          std::accumulate(per_weight.begin(), per_weight.end(), 0.0) /
          per_weight.size();
      const auto [mn, mx] = std::minmax_element(per_weight.begin(), per_weight.end());
      r.service_min = *mn / avg;
      r.service_max = *mx / avg;
    }
    return r;
  };
  const std::vector<Rep> reps = repeat(opt, [&](bool traced) { return run_rep(traced); });
  if (rep.windows == 0) rep.fail("no fairness window could be checked");
  // Weighted shedding should give every flow its weighted share of the
  // link; a starved flow shows here (it is not backlogged, so the
  // per-window fairness check does not cover it).
  double service_min = 1.0, service_max = 1.0;
  for (const Rep& r : reps) {
    service_min = std::min(service_min, r.service_min);
    service_max = std::max(service_max, r.service_max);
  }
  char line[320];
  std::snprintf(line, sizeof line,
                "service per unit weight over the steady half, relative to "
                "the flow mean: min %.3f max %.3f (worst repetition)",
                service_min, service_max);
  rep.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "fairness windows: %llu checked, %llu breached; not checked "
                "across shards after a dispatcher was preempted: %llu (%llu "
                "over the bound); not checked after the generator ran over "
                "%.0f us late: %llu (%llu over the bound)",
                (unsigned long long)rep.windows,
                (unsigned long long)rep.windows_breached,
                (unsigned long long)preempted_windows,
                (unsigned long long)preempted_breached, kLateFlagUs,
                (unsigned long long)lagged_windows,
                (unsigned long long)lagged_breached);
  rep.notes.push_back(line);
  std::vector<double> setups;
  if (!opt.trace)
    for (int k = 0; k < kSetupTrials; ++k)
      setups.push_back(run_rep(false, /*setup_only=*/true).setup_s);
  LayerReplays lr;
  if (opt.trace) {
    lr = replay_layers(1, flows.size(), flow_sequence(make_schedule(0), 1 << 16),
                       kShards, opt.seed);
  }
  rt_common_metrics(reps, setups, opt, lr, "lat_p50_us", false, rep);
  return rep;
}

}  // namespace perfbench
