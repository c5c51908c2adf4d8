// Coverage for smaller public APIs: the scheduler factory, FlowTable
// aggregates, VBR GoP validation, generalized rates in the hierarchy, and
// Fair Airport regulator monotonicity.
#include <gtest/gtest.h>

#include <memory>

#include "core/flow_table.h"
#include "core/scheduler_factory.h"
#include "sched/drr_scheduler.h"
#include "hier/hsfq_scheduler.h"
#include "sched/fair_airport.h"
#include "sim/simulator.h"
#include "traffic/vbr_video.h"

namespace sfq {
namespace {

TEST(SchedulerFactory, CreatesEveryAdvertisedName) {
  for (const std::string& name : scheduler_names()) {
    SchedulerOptions opts;
    // SFQ-W is the one advertised name with a mandatory option: the tag
    // quantization window has no universal default (it is l_max / C).
    if (name == "SFQ-W") opts.sfq_wheel_quantum = 0.1;
    auto s = make_scheduler(name, opts);
    ASSERT_NE(s, nullptr) << name;
    // Factory name and self-reported name agree up to known aliases.
    if (name == "VC") EXPECT_EQ(s->name(), "VirtualClock");
    else if (name == "EDD") EXPECT_EQ(s->name(), "DelayEDD");
    else if (name == "HSFQ") EXPECT_EQ(s->name(), "H-SFQ");
    else EXPECT_EQ(s->name(), name);
    // Basic lifecycle: register a flow, push/pop one packet.
    FlowId f = s->add_flow(1000.0, 100.0);
    Packet p;
    p.flow = f;
    p.seq = 1;
    p.length_bits = 100.0;
    s->enqueue(std::move(p), 0.0);
    auto out = s->dequeue(0.0);
    ASSERT_TRUE(out) << name;
    s->on_transmit_complete(*out, 0.0);
    EXPECT_TRUE(s->empty()) << name;
  }
}

TEST(SchedulerFactory, UnknownNameThrows) {
  EXPECT_THROW(make_scheduler("Turbo"), std::invalid_argument);
}

TEST(SchedulerFactory, OptionsReachTheSchedulers) {
  SchedulerOptions opts;
  opts.quantum_per_weight = 7.0;
  auto drr = make_scheduler("DRR", opts);
  FlowId f = drr->add_flow(3.0);
  // Quantum = weight * quantum_per_weight = 21 bits (via the DRR accessor).
  auto* d = dynamic_cast<DrrScheduler*>(drr.get());
  ASSERT_NE(d, nullptr);
  EXPECT_DOUBLE_EQ(d->quantum(f), 21.0);
}

TEST(FlowTable, AggregatesAndValidation) {
  FlowTable t;
  EXPECT_THROW(t.add(0.0), std::invalid_argument);
  FlowId a = t.add(100.0, 1000.0, "a");
  FlowId b = t.add(300.0, 2000.0);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_DOUBLE_EQ(t.total_weight(), 400.0);
  EXPECT_DOUBLE_EQ(t.total_max_packet_bits(), 3000.0);
  EXPECT_DOUBLE_EQ(t.sum_other_max_packets(a), 2000.0);
  EXPECT_DOUBLE_EQ(t.sum_other_max_packets(b), 1000.0);
  EXPECT_EQ(t.name(b), "flow1");  // auto-named
}

TEST(MpegVbr, RejectsBadGop) {
  sim::Simulator sim;
  traffic::MpegVbrSource::Params p;
  p.gop = "IXP";
  EXPECT_THROW(
      traffic::MpegVbrSource(sim, 0, [](Packet) {}, p),
      std::invalid_argument);
  p.gop = "";
  EXPECT_THROW(
      traffic::MpegVbrSource(sim, 0, [](Packet) {}, p),
      std::invalid_argument);
}

TEST(MpegVbr, CustomGopChangesMix) {
  sim::Simulator sim;
  traffic::MpegVbrSource::Params p;
  p.gop = "IPPP";
  traffic::MpegVbrSource src(sim, 0, [](Packet) {}, p);
  // 4-frame GoP: I carries 5/(5+2+2+2) of the per-GoP bits.
  const double gop_bits = p.average_rate * 4.0 / p.fps;
  EXPECT_NEAR(src.mean_frame_bits('I'), gop_bits * 5.0 / 11.0, 1e-6);
}

TEST(HsfqGeneralizedRates, PerPacketRateAppliesAtTheLeaf) {
  hier::HsfqScheduler s;
  FlowId f = s.add_flow(1.0);
  FlowId g = s.add_flow(1.0);
  // f's packet carries rate 10 => its next start tag advances by l/10 only.
  Packet p1;
  p1.flow = f;
  p1.seq = 1;
  p1.length_bits = 10.0;
  p1.rate = 10.0;
  s.enqueue(std::move(p1), 0.0);
  Packet p2;
  p2.flow = f;
  p2.seq = 2;
  p2.length_bits = 10.0;
  s.enqueue(std::move(p2), 0.0);
  Packet q;
  q.flow = g;
  q.seq = 1;
  q.length_bits = 10.0;
  s.enqueue(std::move(q), 0.0);

  // Order: f1 (S=0, tie FIFO), g1 (S=0), f2 (S=1 thanks to the boosted rate;
  // without p1.rate it would be S=10 and still after g1 — the observable
  // effect is f2 coming before nothing else here, so check the tags via a
  // second g packet at S=10).
  Packet q2;
  q2.flow = g;
  q2.seq = 2;
  q2.length_bits = 10.0;
  s.enqueue(std::move(q2), 0.0);  // S = 10 (g's F after q1)

  std::vector<std::pair<FlowId, uint64_t>> order;
  while (auto out = s.dequeue(0.0)) {
    order.push_back({out->flow, out->seq});
    s.on_transmit_complete(*out, 0.0);
  }
  EXPECT_EQ(order, (std::vector<std::pair<FlowId, uint64_t>>{
                       {f, 1}, {g, 1}, {f, 2}, {g, 2}}));
}

TEST(FairAirport, RegulatorReleasesKeepArrivalOrderPerFlow) {
  FairAirportScheduler s;
  FlowId f = s.add_flow(10.0);  // l/r = 1 s spacing at l=10
  for (int j = 1; j <= 4; ++j) {
    Packet p;
    p.flow = f;
    p.seq = j;
    p.length_bits = 10.0;
    p.arrival = 0.0;
    s.enqueue(std::move(p), 0.0);
  }
  // Dequeue at widely spaced times so every packet goes through the GSQ;
  // releases must follow arrival order with EAT spacing.
  for (int j = 1; j <= 4; ++j) {
    auto p = s.dequeue(10.0 * j);
    ASSERT_TRUE(p);
    EXPECT_EQ(p->seq, static_cast<uint64_t>(j));
    s.on_transmit_complete(*p, 10.0 * j);
  }
  EXPECT_EQ(s.served_via_gsq(), 4u);
}

}  // namespace
}  // namespace sfq
