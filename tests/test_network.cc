#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/sfq_scheduler.h"
#include "net/network.h"
#include "net/rate_profile.h"
#include "sim/simulator.h"
#include "stats/service_recorder.h"
#include "traffic/sink.h"
#include "traffic/sources.h"

namespace sfq::net {
namespace {

TandemNetwork::Hop make_hop(double capacity, Time prop) {
  TandemNetwork::Hop h;
  h.scheduler = std::make_unique<SfqScheduler>();
  h.profile = std::make_unique<ConstantRate>(capacity);
  h.propagation_to_next = prop;
  return h;
}

TEST(TandemNetwork, SingleHopDelivers) {
  sim::Simulator sim;
  std::vector<TandemNetwork::Hop> hops;
  hops.push_back(make_hop(10.0, 0.0));
  TandemNetwork net(sim, std::move(hops));
  FlowId f = net.add_flow(1.0, 10.0);

  Time delivered = -1.0;
  uint32_t hops_seen = 0;
  net.set_delivery([&](const Packet& p, Time t) {
    delivered = t;
    hops_seen = p.hops;
  });
  sim.at(0.0, [&] {
    Packet p;
    p.flow = f;
    p.seq = 1;
    p.length_bits = 10.0;
    net.inject(std::move(p));
  });
  sim.run();
  EXPECT_DOUBLE_EQ(delivered, 1.0);
  EXPECT_EQ(hops_seen, 1u);
}

TEST(TandemNetwork, PropagationDelayAdds) {
  sim::Simulator sim;
  std::vector<TandemNetwork::Hop> hops;
  hops.push_back(make_hop(10.0, 0.25));
  hops.push_back(make_hop(10.0, 0.0));
  TandemNetwork net(sim, std::move(hops));
  FlowId f = net.add_flow(1.0, 10.0);
  Time delivered = -1.0;
  net.set_delivery([&](const Packet&, Time t) { delivered = t; });
  sim.at(0.0, [&] {
    Packet p;
    p.flow = f;
    p.seq = 1;
    p.length_bits = 10.0;
    net.inject(std::move(p));
  });
  sim.run();
  // 1 s at hop 1 + 0.25 s propagation + 1 s at hop 2.
  EXPECT_DOUBLE_EQ(delivered, 2.25);
}

TEST(TandemNetwork, PerHopRecordersTrackService) {
  sim::Simulator sim;
  std::vector<TandemNetwork::Hop> hops;
  hops.push_back(make_hop(100.0, 0.0));
  hops.push_back(make_hop(100.0, 0.0));
  hops.push_back(make_hop(100.0, 0.0));
  TandemNetwork net(sim, std::move(hops));
  FlowId f = net.add_flow(50.0, 10.0);
  // The network records nothing itself; attach a recorder at every hop.
  std::vector<stats::ServiceRecorder> recorders(net.hop_count());
  for (std::size_t i = 0; i < net.hop_count(); ++i)
    net.server(i).set_recorder(&recorders[i]);

  traffic::CbrSource src(
      sim, f,
      [&](Packet p) {
        p.source_departure = sim.now();
        net.inject(std::move(p));
      },
      50.0, 10.0);
  // Emissions at 0.0, 0.2, ..., 1.8; stop strictly between the 10th and 11th
  // (0.2 accumulates FP error, so 2.0 is not a safe boundary).
  src.run(0.0, 1.9);
  sim.run();
  for (stats::ServiceRecorder& r : recorders) r.finish(sim.now());

  for (std::size_t i = 0; i < net.hop_count(); ++i)
    EXPECT_EQ(recorders[i].served_packets(f), 10u) << "hop " << i;
}

TEST(TandemNetwork, FlowOrderPreservedEndToEnd) {
  sim::Simulator sim;
  std::vector<TandemNetwork::Hop> hops;
  hops.push_back(make_hop(1000.0, 0.1));
  hops.push_back(make_hop(500.0, 0.1));
  hops.push_back(make_hop(2000.0, 0.0));
  TandemNetwork net(sim, std::move(hops));
  FlowId a = net.add_flow(100.0, 40.0);
  FlowId b = net.add_flow(300.0, 40.0);

  std::vector<uint64_t> seq_a, seq_b;
  net.set_delivery([&](const Packet& p, Time) {
    (p.flow == a ? seq_a : seq_b).push_back(p.seq);
  });
  auto emit = [&](Packet p) { net.inject(std::move(p)); };
  traffic::PoissonSource sa(sim, a, emit, 300.0, 40.0, 5);
  traffic::PoissonSource sb(sim, b, emit, 600.0, 40.0, 6);
  sa.run(0.0, 5.0);
  sb.run(0.0, 5.0);
  sim.run();

  for (std::size_t i = 1; i < seq_a.size(); ++i)
    EXPECT_EQ(seq_a[i], seq_a[i - 1] + 1);
  for (std::size_t i = 1; i < seq_b.size(); ++i)
    EXPECT_EQ(seq_b[i], seq_b[i - 1] + 1);
  // ~7.5 pkt/s for 5 s on flow a.
  EXPECT_GT(seq_a.size(), 25u);
  EXPECT_GT(seq_b.size(), 50u);
}

TEST(TandemNetwork, RejectsEmptyHopList) {
  sim::Simulator sim;
  EXPECT_THROW(TandemNetwork(sim, {}), std::invalid_argument);
}

}  // namespace
}  // namespace sfq::net
