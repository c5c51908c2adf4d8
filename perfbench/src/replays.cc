#include "replays.h"

#include <cmath>
#include <random>

#include "common.h"
#include "core/flow_table.h"
#include "core/packet.h"
#include "obs/telemetry/telemetry.h"
#include "rt/ingress.h"
#include "rt/shard/shard_router.h"
#include "sim/event_queue.h"

namespace perfbench {
namespace {

constexpr int kRounds = 9;

// Keeps a computed value alive so the timed loop is not folded away.
template <typename T>
void keep(T const& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

template <typename Round>
double median_round_ns(Round&& round) {
  std::vector<double> per_op;
  for (int r = 0; r < kRounds; ++r) per_op.push_back(round());
  return median(per_op);
}

double elapsed_ns(Clock::time_point a) {
  return std::chrono::duration<double, std::nano>(Clock::now() - a).count();
}

}  // namespace

double replay_ingress_pop_ns(std::size_t producers) {
  constexpr std::size_t kItems = 1 << 13;  // per ring, below its capacity
  sfq::rt::Ingress ingress(producers, kItems);
  sfq::Packet p;
  p.length_bits = 512.0;
  return median_round_ns([&] {
    // Interleaved stamps, as concurrent producers leave them.
    for (std::size_t k = 0; k < kItems; ++k)
      for (std::size_t i = 0; i < producers; ++i) {
        p.flow = static_cast<sfq::FlowId>(i);
        ingress.push(i, p, static_cast<double>(k * producers + i) * 1e-9);
      }
    const std::size_t n = kItems * producers;
    const Clock::time_point a = Clock::now();
    for (std::size_t k = 0; k < n; ++k) {
      auto item = ingress.pop_earliest();
      keep(item);
    }
    return elapsed_ns(a) / static_cast<double>(n);
  });
}

double replay_flow_table_active_ns(std::size_t table_size,
                                   const std::vector<uint32_t>& flows) {
  sfq::FlowTable table;
  table.reserve(table_size);
  for (std::size_t f = 0; f < table_size; ++f) table.add(1.0, 512.0);
  return median_round_ns([&] {
    std::size_t active = 0;
    const Clock::time_point a = Clock::now();
    for (uint32_t f : flows) active += table.active(f) ? 1 : 0;
    const double ns = elapsed_ns(a);
    keep(active);
    return ns / static_cast<double>(flows.size());
  });
}

double replay_event_queue_cycle_ns(std::size_t depth, uint64_t seed) {
  std::mt19937_64 rng = rng_for(seed, 0xe7);
  std::uniform_real_distribution<double> gap(0.0, 1e-3);
  sfq::sim::EventQueue q;
  sfq::Packet p;
  p.length_bits = 512.0;
  double now = 0.0;
  for (std::size_t i = 1; i < depth; ++i)
    q.schedule_packet(now + gap(rng), sfq::sim::EventOp::kServiceComplete,
                      nullptr, p);
  constexpr std::size_t kCycles = 1 << 16;
  std::vector<double> due(kCycles);
  sfq::sim::EventQueue::Popped done;
  return median_round_ns([&] {
    for (double& d : due) d = gap(rng);
    const Clock::time_point a = Clock::now();
    for (std::size_t i = 0; i < kCycles; ++i) {
      q.schedule_packet(now + due[i], sfq::sim::EventOp::kServiceComplete,
                        nullptr, p);
      q.pop(done);
      now = done.when;
    }
    return elapsed_ns(a) / static_cast<double>(kCycles);
  });
}

double replay_telemetry_record_ns(uint64_t seed) {
  namespace tel = sfq::obs::telemetry;
  tel::Telemetry plane;
  tel::LockFreeHistogram& h = plane.hist(tel::HistId::kQueueDelay, 0);
  std::mt19937_64 rng = rng_for(seed, 0x7e);
  std::lognormal_distribution<double> lat(std::log(2e-6), 1.0);
  constexpr std::size_t kRecords = 1 << 16;
  std::vector<double> values(kRecords);
  for (double& v : values) v = lat(rng);
  return median_round_ns([&] {
    const Clock::time_point a = Clock::now();
    for (double v : values) h.record_seconds_single_writer(v);
    return elapsed_ns(a) / static_cast<double>(kRecords);
  });
}

double replay_telemetry_inc_ns() {
  namespace tel = sfq::obs::telemetry;
  tel::Telemetry plane;
  tel::Telemetry::Writer w = plane.writer(0);
  constexpr std::size_t kIncs = 1 << 18;
  return median_round_ns([&] {
    const Clock::time_point a = Clock::now();
    for (std::size_t i = 0; i < kIncs; ++i) {
      w.inc(tel::CounterId::kAccepted);
      asm volatile("" ::: "memory");
    }
    return elapsed_ns(a) / static_cast<double>(kIncs);
  });
}

double replay_route_ns(std::size_t shards,
                       const std::vector<uint32_t>& flows) {
  const sfq::rt::ShardRouter router(shards);
  return median_round_ns([&] {
    std::size_t sum = 0;
    const Clock::time_point a = Clock::now();
    for (uint32_t f : flows) {
      sum += router.shard_of(f);
      asm volatile("" ::: "memory");
    }
    const double ns = elapsed_ns(a);
    keep(sum);
    return ns / static_cast<double>(flows.size());
  });
}

}  // namespace perfbench
