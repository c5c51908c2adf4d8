#include <gtest/gtest.h>

#include <memory>

#include "core/sfq_scheduler.h"
#include "net/priority_server.h"
#include "net/rate_profile.h"
#include "net/scheduled_server.h"
#include "sched/fifo_scheduler.h"
#include "sim/simulator.h"
#include "stats/service_recorder.h"
#include "traffic/sources.h"

namespace sfq {
namespace {

Packet mk(FlowId f, uint64_t seq, double bits) {
  Packet p;
  p.flow = f;
  p.seq = seq;
  p.length_bits = bits;
  return p;
}

TEST(ScheduledServer, TransmitsAtLinkRate) {
  sim::Simulator sim;
  FifoScheduler sched;
  net::ScheduledServer server(sim, sched,
                              std::make_unique<net::ConstantRate>(10.0));
  Time departed = -1.0;
  server.set_departure([&](const Packet&, Time t) { departed = t; });
  sim.at(1.0, [&] { server.inject(mk(0, 1, 20.0)); });
  sim.run();
  EXPECT_DOUBLE_EQ(departed, 3.0);  // 20 bits / 10 bps from t=1
}

TEST(ScheduledServer, WorkConservingBackToBack) {
  sim::Simulator sim;
  FifoScheduler sched;
  net::ScheduledServer server(sim, sched,
                              std::make_unique<net::ConstantRate>(10.0));
  std::vector<Time> departures;
  server.set_departure([&](const Packet&, Time t) { departures.push_back(t); });
  sim.at(0.0, [&] {
    server.inject(mk(0, 1, 10.0));
    server.inject(mk(0, 2, 10.0));
    server.inject(mk(0, 3, 10.0));
  });
  sim.run();
  EXPECT_EQ(departures, (std::vector<Time>{1.0, 2.0, 3.0}));
}

TEST(ScheduledServer, IdleUntilArrival) {
  sim::Simulator sim;
  FifoScheduler sched;
  net::ScheduledServer server(sim, sched,
                              std::make_unique<net::ConstantRate>(1.0));
  EXPECT_FALSE(server.busy());
  std::vector<Time> departures;
  server.set_departure([&](const Packet&, Time t) { departures.push_back(t); });
  sim.at(0.0, [&] { server.inject(mk(0, 1, 1.0)); });
  sim.at(5.0, [&] { server.inject(mk(0, 2, 1.0)); });
  sim.run();
  EXPECT_EQ(departures, (std::vector<Time>{1.0, 6.0}));
}

TEST(ScheduledServer, BufferLimitDropsTail) {
  sim::Simulator sim;
  FifoScheduler sched;
  net::ScheduledServer server(sim, sched,
                              std::make_unique<net::ConstantRate>(1.0));
  server.set_buffer_limit(2);
  int dropped = 0;
  server.set_drop([&](const Packet&, Time) { ++dropped; });
  sim.at(0.0, [&] {
    EXPECT_TRUE(server.inject(mk(0, 1, 100.0)));  // goes into service
    EXPECT_TRUE(server.inject(mk(0, 2, 1.0)));    // queued (1)
    EXPECT_TRUE(server.inject(mk(0, 3, 1.0)));    // queued (2)
    EXPECT_FALSE(server.inject(mk(0, 4, 1.0)));   // dropped
  });
  sim.run();
  EXPECT_EQ(dropped, 1);
  EXPECT_EQ(server.drops(), 1u);
}

TEST(ScheduledServer, RecorderSeesArrivalsAndService) {
  sim::Simulator sim;
  FifoScheduler sched;
  net::ScheduledServer server(sim, sched,
                              std::make_unique<net::ConstantRate>(10.0));
  stats::ServiceRecorder rec;
  server.set_recorder(&rec);
  sim.at(0.0, [&] {
    server.inject(mk(0, 1, 10.0));
    server.inject(mk(1, 1, 20.0));
  });
  sim.run();
  rec.finish(sim.now());
  ASSERT_EQ(rec.transmissions().size(), 2u);
  EXPECT_DOUBLE_EQ(rec.transmissions()[0].start, 0.0);
  EXPECT_DOUBLE_EQ(rec.transmissions()[0].end, 1.0);
  EXPECT_DOUBLE_EQ(rec.transmissions()[1].start, 1.0);
  EXPECT_DOUBLE_EQ(rec.transmissions()[1].end, 3.0);
  ASSERT_EQ(rec.backlog_intervals(0).size(), 1u);
  EXPECT_DOUBLE_EQ(rec.backlog_intervals(0)[0].begin, 0.0);
  EXPECT_DOUBLE_EQ(rec.backlog_intervals(0)[0].end, 1.0);
  ASSERT_EQ(rec.backlog_intervals(1).size(), 1u);
  EXPECT_DOUBLE_EQ(rec.backlog_intervals(1)[0].end, 3.0);
}

TEST(ScheduledServer, NonPreemptiveAcrossRateDrop) {
  // A packet started under high rate keeps transmitting through a rate drop;
  // finish time integrates the profile.
  sim::Simulator sim;
  FifoScheduler sched;
  auto profile = std::make_unique<net::PiecewiseConstantRate>(
      std::vector<net::PiecewiseConstantRate::Segment>{{0.0, 10.0},
                                                       {1.0, 2.0}});
  net::ScheduledServer server(sim, sched, std::move(profile));
  Time departed = -1.0;
  server.set_departure([&](const Packet&, Time t) { departed = t; });
  sim.at(0.5, [&] { server.inject(mk(0, 1, 9.0)); });
  sim.run();
  // 5 bits by t=1 (rate 10), remaining 4 bits at rate 2 -> t=3.
  EXPECT_DOUBLE_EQ(departed, 3.0);
}

TEST(ScheduledServer, DepartureCallbackMayReinjectIntoTheSameServer) {
  // Each departure re-injects its packet (hops + 1) before returning, so the
  // next transmission starts inside the callback; the departing packet the
  // callback holds must stay intact after that.
  sim::Simulator sim;
  FifoScheduler sched;
  net::ScheduledServer server(sim, sched,
                              std::make_unique<net::ConstantRate>(10.0));
  stats::ServiceRecorder rec;
  server.set_recorder(&rec);
  struct Dep {
    FlowId flow;
    uint64_t seq;
    uint32_t hops;
    Time t;
    bool busy_after;
    bool operator==(const Dep&) const = default;
  };
  std::vector<Dep> deps;
  server.set_departure([&](const Packet& p, Time t) {
    if (p.hops < 2) {
      Packet again = p;
      ++again.hops;
      EXPECT_TRUE(server.inject(again));
    }
    deps.push_back(Dep{p.flow, p.seq, p.hops, t, server.busy()});
  });
  sim.at(0.0, [&] {
    server.inject(mk(0, 1, 10.0));
    server.inject(mk(1, 7, 10.0));
  });
  sim.run();
  const std::vector<Dep> want = {
      {0, 1, 0, 1.0, true},  {1, 7, 0, 2.0, true},  {0, 1, 1, 3.0, true},
      {1, 7, 1, 4.0, true},  {0, 1, 2, 5.0, false}, {1, 7, 2, 6.0, false}};
  EXPECT_EQ(deps, want);
  EXPECT_FALSE(server.busy());
  EXPECT_EQ(rec.transmissions().size(), 6u);
  EXPECT_EQ(sim.events_executed(), 7u);  // the t=0 callback + 6 completions
}

// --- PriorityServer ---------------------------------------------------------

TEST(PriorityServer, HighPriorityAlwaysWins) {
  sim::Simulator sim;
  SfqScheduler low;
  FlowId lf = low.add_flow(1.0);
  net::PriorityServer server(sim, low,
                             std::make_unique<net::ConstantRate>(10.0));
  std::vector<std::pair<char, Time>> log;
  server.set_high_departure(
      [&](const Packet&, Time t) { log.push_back({'H', t}); });
  server.set_low_departure(
      [&](const Packet&, Time t) { log.push_back({'L', t}); });

  sim.at(0.0, [&] {
    Packet lo = mk(lf, 1, 10.0);
    server.inject_low(std::move(lo));
    Packet hi1 = mk(0, 1, 10.0);
    Packet hi2 = mk(0, 2, 10.0);
    server.inject_high(std::move(hi1));
    server.inject_high(std::move(hi2));
  });
  sim.run();
  // Low packet grabbed the idle link first (non-preemptive), then both
  // high-priority packets go ahead of nothing else.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0].first, 'L');
  EXPECT_EQ(log[1].first, 'H');
  EXPECT_EQ(log[2].first, 'H');
}

TEST(PriorityServer, LowClassSeesResidualCapacity) {
  // HP stream takes half the link; the LP flow should see ~half throughput.
  sim::Simulator sim;
  SfqScheduler low;
  FlowId lf = low.add_flow(1.0);
  net::PriorityServer server(sim, low,
                             std::make_unique<net::ConstantRate>(100.0));
  stats::ServiceRecorder rec;
  server.set_low_recorder(&rec);

  traffic::CbrSource hp(sim, 0,
                        [&](Packet p) { server.inject_high(std::move(p)); },
                        50.0, 10.0);
  traffic::CbrSource lp(sim, lf,
                        [&](Packet p) { server.inject_low(std::move(p)); },
                        200.0, 10.0);
  hp.run(0.0, 10.0);
  lp.run(0.0, 10.0);
  sim.run_until(10.0);
  rec.finish(10.0);

  const double lp_rate = rec.served_bits(lf) / 10.0;
  EXPECT_NEAR(lp_rate, 50.0, 5.0);
}

TEST(PriorityServer, HighBacklogVisible) {
  sim::Simulator sim;
  SfqScheduler low;
  net::PriorityServer server(sim, low,
                             std::make_unique<net::ConstantRate>(1.0));
  sim.at(0.0, [&] {
    server.inject_high(mk(0, 1, 5.0));
    server.inject_high(mk(0, 2, 3.0));
  });
  sim.run_until(0.0);
  // First is in service, second queued.
  EXPECT_DOUBLE_EQ(server.high_backlog_bits(), 3.0);
}

}  // namespace
}  // namespace sfq
