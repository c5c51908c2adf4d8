#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "config/experiment.h"
#include "core/scheduler_factory.h"
#include "obs/trace.h"
#include "stats/fairness.h"
#include "stats/service_recorder.h"

namespace sfq::config {
namespace {

// --- Unit parsing -----------------------------------------------------------

TEST(Units, Rates) {
  EXPECT_DOUBLE_EQ(parse_rate("1000"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_rate("64Kbps"), 64e3);
  EXPECT_DOUBLE_EQ(parse_rate("2.5Mbps"), 2.5e6);
  EXPECT_DOUBLE_EQ(parse_rate("1Gbps"), 1e9);
  EXPECT_DOUBLE_EQ(parse_rate("100bps"), 100.0);
  EXPECT_THROW(parse_rate("10MBps"), std::invalid_argument);
  EXPECT_THROW(parse_rate("fast"), std::invalid_argument);
}

TEST(Units, Sizes) {
  EXPECT_DOUBLE_EQ(parse_size("100"), 100.0);
  EXPECT_DOUBLE_EQ(parse_size("100b"), 100.0);
  EXPECT_DOUBLE_EQ(parse_size("200B"), 1600.0);
  EXPECT_DOUBLE_EQ(parse_size("1KB"), 8000.0);
  EXPECT_DOUBLE_EQ(parse_size("1Kb"), 1000.0);
  EXPECT_DOUBLE_EQ(parse_size("2MB"), 16e6);
  EXPECT_THROW(parse_size("1GB"), std::invalid_argument);
}

TEST(Units, Times) {
  EXPECT_DOUBLE_EQ(parse_time("2"), 2.0);
  EXPECT_DOUBLE_EQ(parse_time("2s"), 2.0);
  EXPECT_DOUBLE_EQ(parse_time("500ms"), 0.5);
  EXPECT_DOUBLE_EQ(parse_time("250us"), 250e-6);
  EXPECT_THROW(parse_time("1h"), std::invalid_argument);
}

TEST(Units, ScientificNotation) {
  EXPECT_DOUBLE_EQ(parse_rate("1e6"), 1e6);
  EXPECT_DOUBLE_EQ(parse_size("1.5e3B"), 12000.0);
}

// --- Config parsing -----------------------------------------------------------

TEST(ExperimentSpecParse, FullConfig) {
  std::istringstream in(R"(
# a comment
scheduler SCFQ
link rate=10Mbps delta=20Kb buffer=64
duration 5s
flow name=voice kind=cbr rate=64Kbps packet=160B
flow name=web kind=poisson rate=2Mbps packet=1000B weight=1Mbps seed=7
flow kind=greedy packet=1500B weight=4Mbps start=2s stop=4s
)");
  const auto spec = ExperimentSpec::parse(in);
  EXPECT_EQ(spec.scheduler, "SCFQ");
  ASSERT_EQ(spec.hops.size(), 1u);
  EXPECT_DOUBLE_EQ(spec.hops[0].rate, 10e6);
  EXPECT_DOUBLE_EQ(spec.hops[0].delta, 20e3);
  EXPECT_EQ(spec.hops[0].buffer_packets, 64u);
  EXPECT_DOUBLE_EQ(spec.duration, 5.0);
  ASSERT_EQ(spec.flows.size(), 3u);

  EXPECT_EQ(spec.flows[0].name, "voice");
  EXPECT_DOUBLE_EQ(spec.flows[0].rate, 64e3);
  EXPECT_DOUBLE_EQ(spec.flows[0].weight, 64e3);  // defaults to rate
  EXPECT_DOUBLE_EQ(spec.flows[0].packet, 1280.0);

  EXPECT_EQ(spec.flows[1].seed, 7u);
  EXPECT_DOUBLE_EQ(spec.flows[1].weight, 1e6);  // explicit

  EXPECT_EQ(spec.flows[2].name, "flow2");  // auto-named
  EXPECT_EQ(spec.flows[2].kind, "greedy");
  EXPECT_DOUBLE_EQ(spec.flows[2].start, 2.0);
  EXPECT_DOUBLE_EQ(spec.flows[2].stop, 4.0);
}

TEST(ExperimentSpecParse, Rejections) {
  auto parse = [](const char* text) {
    std::istringstream in(text);
    return ExperimentSpec::parse(in);
  };
  EXPECT_THROW(parse("flow kind=cbr rate=1Mbps packet=100B\nbogus x"),
               std::invalid_argument);
  EXPECT_THROW(parse("flow kind=warp rate=1Mbps packet=100B"),
               std::invalid_argument);
  EXPECT_THROW(parse("flow kind=cbr packet=100B"), std::invalid_argument);
  EXPECT_THROW(parse("flow kind=cbr rate=1Mbps"), std::invalid_argument);
  EXPECT_THROW(parse("flow notkeyvalue"), std::invalid_argument);
  EXPECT_THROW(parse("link speed=1Mbps\nflow kind=cbr rate=1 packet=1"),
               std::invalid_argument);
  EXPECT_THROW(parse(""), std::invalid_argument);  // no flows
  EXPECT_THROW(ExperimentSpec::parse_file("/nonexistent/file.conf"),
               std::runtime_error);
}

// --- Running ---------------------------------------------------------------------

TEST(ExperimentRun, WeightedSharesUnderOverload) {
  std::istringstream in(R"(
scheduler SFQ
link rate=1Mbps
duration 5s
flow name=a kind=greedy packet=500B weight=250Kbps
flow name=b kind=greedy packet=500B weight=750Kbps
)");
  const auto result = run_experiment(ExperimentSpec::parse(in));
  ASSERT_EQ(result.flows.size(), 2u);
  EXPECT_NEAR(result.flows[0].throughput, 250e3, 15e3);
  EXPECT_NEAR(result.flows[1].throughput, 750e3, 15e3);
  EXPECT_LE(result.worst_fairness_ratio, 1.0 + 1e-9);
  EXPECT_EQ(result.drops, 0u);
}

TEST(ExperimentRun, BufferLimitCausesDrops) {
  std::istringstream in(R"(
scheduler FIFO
link rate=100Kbps buffer=4
duration 3s
flow name=burst kind=greedy packet=1000B weight=400Kbps
)");
  const auto result = run_experiment(ExperimentSpec::parse(in));
  EXPECT_GT(result.drops, 0u);
}

TEST(ExperimentRun, EverySchedulerRunsTheSameConfig) {
  for (const char* sched : {"SFQ", "SCFQ", "WFQ", "FQS", "DRR", "WRR", "VC",
                            "EDD", "FIFO", "FairAirport", "HSFQ"}) {
    std::istringstream in(std::string("scheduler ") + sched + R"(
link rate=1Mbps
duration 2s
flow name=a kind=poisson rate=300Kbps packet=500B
flow name=b kind=cbr rate=300Kbps packet=250B
)");
    const auto result = run_experiment(ExperimentSpec::parse(in));
    ASSERT_EQ(result.flows.size(), 2u) << sched;
    // Uncongested: everything offered is delivered.
    EXPECT_NEAR(result.flows[1].throughput, 300e3, 10e3) << sched;
    EXPECT_GT(result.flows[0].packets_delivered, 100u) << sched;
  }
}


TEST(ExperimentSpecParse, MultiHopPath) {
  std::istringstream in(R"(
scheduler SFQ
link rate=10Mbps prop=2ms
link rate=5Mbps prop=3ms
link rate=10Mbps
duration 2s
flow name=a kind=cbr rate=1Mbps packet=1000B
)");
  const auto spec = ExperimentSpec::parse(in);
  ASSERT_EQ(spec.hops.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.hops[0].propagation, 0.002);
  EXPECT_DOUBLE_EQ(spec.hops[1].rate, 5e6);
}

TEST(ExperimentRun, MultiHopEndToEndDelayIncludesPropagation) {
  std::istringstream in(R"(
scheduler SFQ
link rate=1Mbps prop=10ms
link rate=1Mbps
duration 3s
flow name=a kind=cbr rate=200Kbps packet=1000B
)");
  const auto result = run_experiment(ExperimentSpec::parse(in));
  ASSERT_EQ(result.flows.size(), 1u);
  // Uncongested: delay ~ 2 transmissions (8 ms each) + 10 ms propagation.
  EXPECT_NEAR(to_milliseconds(result.flows[0].mean_delay), 26.0, 1.0);
  EXPECT_NEAR(result.flows[0].throughput, 200e3, 10e3);
}

TEST(ExperimentRun, DeterministicAcrossRuns) {
  const char* conf = R"(
scheduler SFQ
link rate=1Mbps
duration 3s
flow name=a kind=poisson rate=400Kbps packet=500B seed=42
flow name=b kind=onoff rate=800Kbps packet=750B weight=400Kbps seed=43
)";
  std::istringstream in1(conf), in2(conf);
  const auto r1 = run_experiment(ExperimentSpec::parse(in1));
  const auto r2 = run_experiment(ExperimentSpec::parse(in2));
  ASSERT_EQ(r1.flows.size(), r2.flows.size());
  for (std::size_t i = 0; i < r1.flows.size(); ++i) {
    EXPECT_EQ(r1.flows[i].packets_delivered, r2.flows[i].packets_delivered);
    EXPECT_DOUBLE_EQ(r1.flows[i].throughput, r2.flows[i].throughput);
    EXPECT_DOUBLE_EQ(r1.flows[i].mean_delay, r2.flows[i].mean_delay);
    EXPECT_DOUBLE_EQ(r1.flows[i].max_delay, r2.flows[i].max_delay);
  }
  EXPECT_DOUBLE_EQ(r1.worst_fairness_ratio, r2.worst_fairness_ratio);
}

// Rebuilds the first hop's ServiceRecorder from its trace events.
class RecorderSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& e) override {
    using T = obs::TraceEventType;
    if (e.type == T::kEnqueue) rec.on_arrival(e.flow, e.t);
    else if (e.type == T::kTxStart) start_ = e.t;
    else if (e.type == T::kTxEnd)
      rec.on_service(e.flow, e.length_bits, e.arrival, start_, e.t);
  }
  stats::ServiceRecorder rec;

 private:
  Time start_ = 0.0;
};

// run_experiment's worst_fairness_ratio equals, bit for bit, the pairwise
// loop over empirical_fairness with the Theorem-1 bound (plus the 2*quantum
// slack under SFQ-W) on the first hop's record.
TEST(ExperimentRun, WorstFairnessRatioEqualsThePerPairLoop) {
  const std::string flows = R"(
duration 3s
flow name=a kind=poisson rate=250Kbps packet=500B seed=1
flow name=b kind=cbr rate=150Kbps packet=200B weight=100Kbps
flow name=c kind=onoff rate=400Kbps packet=1000B weight=200Kbps seed=2
flow name=d kind=greedy packet=1500B weight=300Kbps
flow name=e kind=poisson rate=100Kbps packet=64B seed=3
flow name=f kind=cbr rate=120Kbps packet=576B start=0.5s stop=2s
)";
  const std::string one_hop = "link rate=1Mbps\n";
  const std::string three_hops =
      "link rate=1Mbps prop=1ms\nlink rate=2Mbps prop=1ms\nlink rate=1Mbps\n";
  for (const std::string& conf :
       {"scheduler SFQ\n" + one_hop + flows,
        "scheduler SFQ\n" + three_hops + flows,
        "scheduler SFQ-W\n" + one_hop + flows}) {
    std::istringstream in(conf);
    const ExperimentSpec spec = ExperimentSpec::parse(in);
    RecorderSink sink;
    const ExperimentResult res = run_experiment(spec, &sink);
    sink.rec.finish(spec.duration);
    SchedulerOptions opts;
    opts.assumed_capacity = spec.link_rate();
    opts.sfq_wheel_quantum = sfq_wheel_quantum(spec);
    const std::vector<FlowId> ids =
        build_experiment_scheduler(spec, opts).flow_ids;
    EXPECT_EQ(res.quantization_window > 0.0, spec.scheduler == "SFQ-W");
    double worst = 0.0;
    for (std::size_t i = 0; i < ids.size(); ++i)
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        const FlowSpec& a = spec.flows[i];
        const FlowSpec& b = spec.flows[j];
        const double h = stats::empirical_fairness(sink.rec, ids[i], a.weight,
                                                   ids[j], b.weight);
        const double bound =
            stats::sfq_fairness_bound(std::max(a.packet, 1.0), a.weight,
                                      std::max(b.packet, 1.0), b.weight) +
            2.0 * res.quantization_window;
        worst = std::max(worst, h / bound);
      }
    EXPECT_GT(worst, 0.0) << conf;
    EXPECT_EQ(res.worst_fairness_ratio, worst) << conf;
  }
}

TEST(ExperimentRun, VbrFlowWorks) {
  std::istringstream in(R"(
scheduler SFQ
link rate=5Mbps
duration 4s
flow name=tv kind=vbr rate=1.21Mbps packet=50B
flow name=bg kind=cbr rate=1Mbps packet=1000B
)");
  const auto result = run_experiment(ExperimentSpec::parse(in));
  EXPECT_NEAR(result.flows[0].throughput, 1.21e6, 0.3e6);
}

}  // namespace
}  // namespace sfq::config
