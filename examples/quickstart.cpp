// Quickstart: three CBR flows with weights 1:2:3 share a 10 Mb/s link under
// SFQ. Demonstrates the core API: build a scheduler, wrap it in a server,
// attach sources and a sink, run, and read per-flow statistics.
#include <cstdio>

#include "core/sfq_scheduler.h"
#include "net/rate_profile.h"
#include "net/scheduled_server.h"
#include "sim/simulator.h"
#include "stats/fairness.h"
#include "traffic/sink.h"
#include "traffic/sources.h"

int main() {
  using namespace sfq;

  sim::Simulator sim;

  // 1. The queueing discipline: Start-time Fair Queuing.
  SfqScheduler sched;
  const double kPacket = bytes(1000);
  FlowId a = sched.add_flow(megabits_per_sec(1), kPacket, "bronze");
  FlowId b = sched.add_flow(megabits_per_sec(2), kPacket, "silver");
  FlowId c = sched.add_flow(megabits_per_sec(3), kPacket, "gold");

  // 2. The output link: 10 Mb/s constant rate.
  net::ScheduledServer link(
      sim, sched, std::make_unique<net::ConstantRate>(megabits_per_sec(10)));

  // 3. Statistics and delivery.
  stats::ServiceRecorder recorder;
  link.set_recorder(&recorder);
  traffic::PacketSink sink;
  link.set_departure([&](const Packet& p, Time t) { sink.deliver(p, t); });

  // 4. Greedy sources: every flow offers 10 Mb/s, so all are continuously
  //    backlogged and the link must arbitrate.
  auto emit = [&](Packet p) { link.inject(std::move(p)); };
  traffic::CbrSource sa(sim, a, emit, megabits_per_sec(10), kPacket);
  traffic::CbrSource sb(sim, b, emit, megabits_per_sec(10), kPacket);
  traffic::CbrSource sc(sim, c, emit, megabits_per_sec(10), kPacket);
  sa.run(0.0, 10.0);
  sb.run(0.0, 10.0);
  sc.run(0.0, 10.0);

  // 5. Run 10 simulated seconds.
  sim.run_until(10.0);
  recorder.finish(sim.now());

  std::printf("flow     weight  served(Mb)  share\n");
  double total = 0.0;
  for (FlowId f : {a, b, c}) total += recorder.served_bits(f);
  for (FlowId f : {a, b, c}) {
    const double bits = recorder.served_bits(f);
    std::printf("%-8s %-7.0f %-11.2f %.3f\n",
                sched.flows().name(f).c_str(),
                sched.flows().weight(f) / 1e6, bits / 1e6, bits / total);
  }

  const double h = stats::empirical_fairness(
      recorder, a, sched.flows().weight(a), c, sched.flows().weight(c));
  const double bound = stats::sfq_fairness_bound(
      kPacket, sched.flows().weight(a), kPacket, sched.flows().weight(c));
  std::printf("\nempirical H(bronze,gold) = %.6f s, Theorem-1 bound = %.6f s\n",
              h, bound);
  const bool ok = h <= bound + 1e-9;  // the bound is tight; allow FP noise
  std::printf("%s\n", ok ? "fairness bound holds" : "BOUND VIOLATED");
  return ok ? 0 : 1;
}
