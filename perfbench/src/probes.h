// In-place probes: a forwarding Scheduler and a forwarding RateProfile that
// time the calls the rt dispatcher makes into the wrapped implementation.
// They live in the benchmark, not in src/, so the program under test is
// unchanged; the traced run swaps them in around the real objects.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common.h"
#include "core/scheduler.h"
#include "net/rate_profile.h"

namespace perfbench {

// Times one call with the sampled timer when it is due.
template <typename F>
auto timed_call(bool on, SampledTimer& t, F&& f) {
  if (!on || !t.due()) return f();
  const Clock::time_point a = Clock::now();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    t.add(std::chrono::duration<double, std::nano>(Clock::now() - a).count());
  } else {
    auto r = f();
    t.add(std::chrono::duration<double, std::nano>(Clock::now() - a).count());
    return r;
  }
}

// Forwards every Scheduler call to `inner`. Scheduler::flows() is not
// virtual and the engine reads weights and activity through it, so this
// wrapper mirrors every flow-table change of the inner scheduler into its
// own table (same ids, same weights, same activity).
class ForwardingScheduler final : public sfq::Scheduler {
 public:
  // `timed`: sample enqueue/dequeue/complete durations. `busy_ns` > 0 adds
  // a fixed busy-wait inside enqueue (attribution self-test).
  ForwardingScheduler(std::unique_ptr<sfq::Scheduler> inner, bool timed,
                      double busy_ns)
      : inner_(std::move(inner)), timed_(timed), busy_ns_(busy_ns) {}

  void reserve_flows(std::size_t n) { flows_.reserve(n); }

  // Per-flow backlog tracking for Theorem 1's premise: held(f) counts the
  // flow's packets queued or in service, idle_count(f) how often it fell
  // to zero. Written by the dispatcher only, readable from any thread.
  void track_backlog(std::size_t flows) {
    held_ = std::make_unique<std::atomic<uint32_t>[]>(flows);
    idle_ = std::make_unique<std::atomic<uint32_t>[]>(flows);
    tracked_ = flows;
  }
  uint32_t held(sfq::FlowId f) const {
    return f < tracked_ ? held_[f].load(std::memory_order_relaxed) : 0;
  }
  uint32_t idle_count(sfq::FlowId f) const {
    return f < tracked_ ? idle_[f].load(std::memory_order_relaxed) : 0;
  }

  // Dispatcher heartbeat. The rt engine calls dequeue once for every
  // packet it starts, so while this scheduler holds packets the next call
  // is due within one transmission time. track_heartbeat(gap_s) counts
  // the calls that came more than `gap_s` late (absences()); absent(t)
  // tells whether the dispatcher is that late at now_s() time t.
  void track_heartbeat(double gap_s) { gap_s_ = gap_s; }
  uint64_t absences() const { return absences_.load(std::memory_order_relaxed); }
  bool absent(double t) const {
    return waiting_.load(std::memory_order_relaxed) &&
           t - last_call_.load(std::memory_order_relaxed) > gap_s_;
  }

  // Fairness self-test: the calling dispatcher sleeps `stall_s` inside
  // dequeue once every `every_s` (a stall of the engine's own making).
  void inject_stall(double stall_s, double every_s) {
    stall_s_ = stall_s;
    stall_every_s_ = every_s;
  }

  sfq::FlowId add_flow(double weight, double max_packet_bits = 0.0,
                       std::string name = {}) override {
    const sfq::FlowId id = inner_->add_flow(weight, max_packet_bits, name);
    const sfq::FlowId mine = flows_.add(weight, max_packet_bits, std::move(name));
    if (mine != id) throw std::logic_error("forwarding scheduler: id skew");
    return id;
  }
  bool enqueue(sfq::Packet p, sfq::Time now) override {
    if (timed_ && (enqueue_.calls % SampledTimer::kEvery) == 0) {
      backlog_sum_ += static_cast<double>(inner_->backlog_packets());
      ++backlog_samples_;
    }
    const sfq::FlowId f = p.flow;
    const bool in = timed_call(timed_, enqueue_, [&] {
      spin_ns(busy_ns_);
      return inner_->enqueue(std::move(p), now);
    });
    if (in) add_held(f, 1);
    return in;
  }
  std::optional<sfq::Packet> dequeue(sfq::Time now) override {
    if (stall_s_ > 0.0) maybe_stall();
    if (gap_s_ > 0.0) beat(now_s());
    std::optional<sfq::Packet> out =
        timed_call(timed_, dequeue_, [&] { return inner_->dequeue(now); });
    if (gap_s_ > 0.0)
      waiting_.store(!inner_->empty(), std::memory_order_relaxed);
    return out;
  }
  void on_transmit_complete(const sfq::Packet& p, sfq::Time now) override {
    timed_call(timed_, complete_,
               [&] { inner_->on_transmit_complete(p, now); });
    add_held(p.flow, -1);
  }
  bool empty() const override { return inner_->empty(); }
  std::size_t backlog_packets() const override {
    return inner_->backlog_packets();
  }
  double backlog_bits(sfq::FlowId f) const override {
    return inner_->backlog_bits(f);
  }
  std::string name() const override { return inner_->name(); }
  sfq::VirtualTime quantization_window() const override {
    return inner_->quantization_window();
  }
  bool requires_registered_flows() const override {
    return inner_->requires_registered_flows();
  }
  std::vector<sfq::Packet> remove_flow(sfq::FlowId f, sfq::Time now) override {
    std::vector<sfq::Packet> out = inner_->remove_flow(f, now);
    flows_.set_active(f, false);
    add_held(f, -static_cast<int64_t>(out.size()));
    return out;
  }
  void rejoin_flow(sfq::FlowId f, sfq::Time now) override {
    inner_->rejoin_flow(f, now);
    flows_.set_active(f, true);
  }
  std::optional<sfq::Packet> pushout(sfq::FlowId f, sfq::Time now) override {
    std::optional<sfq::Packet> out = inner_->pushout(f, now);
    if (out) add_held(f, -1);
    return out;
  }

  SampledTimer enqueue_, dequeue_, complete_;
  double backlog_mean() const {
    return backlog_samples_ ? backlog_sum_ / static_cast<double>(backlog_samples_)
                            : 0.0;
  }

 private:
  void beat(double t) {
    if (waiting_.load(std::memory_order_relaxed) &&
        t - last_call_.load(std::memory_order_relaxed) > gap_s_)
      absences_.store(absences_.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
    last_call_.store(t, std::memory_order_relaxed);
  }

  void maybe_stall() {
    const double t = now_s();
    if (next_stall_ == 0.0) next_stall_ = t + stall_every_s_;
    if (t < next_stall_) return;
    std::this_thread::sleep_for(std::chrono::duration<double>(stall_s_));
    next_stall_ = now_s() + stall_every_s_;
  }

  void add_held(sfq::FlowId f, int64_t d) {
    if (f >= tracked_ || d == 0) return;
    const uint32_t now = static_cast<uint32_t>(
        held_[f].load(std::memory_order_relaxed) + d);
    held_[f].store(now, std::memory_order_relaxed);
    if (now == 0)
      idle_[f].store(idle_[f].load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }

  std::unique_ptr<sfq::Scheduler> inner_;
  bool timed_;
  double busy_ns_;
  double stall_s_ = 0.0, stall_every_s_ = 0.0, next_stall_ = 0.0;
  double gap_s_ = 0.0;
  std::atomic<double> last_call_{0.0};
  std::atomic<bool> waiting_{false};  // held packets after the last call
  std::atomic<uint64_t> absences_{0};
  double backlog_sum_ = 0.0;
  uint64_t backlog_samples_ = 0;
  std::unique_ptr<std::atomic<uint32_t>[]> held_, idle_;
  std::size_t tracked_ = 0;
};

// Times RateProfile::finish_time, the pacing computation the dispatcher
// makes once per transmission.
class TimedRateProfile final : public sfq::net::RateProfile {
 public:
  explicit TimedRateProfile(std::unique_ptr<sfq::net::RateProfile> inner)
      : inner_(std::move(inner)) {}
  sfq::Time finish_time(sfq::Time start, double bits) override {
    return timed_call(true, finish_,
                      [&] { return inner_->finish_time(start, bits); });
  }
  double work(sfq::Time t1, sfq::Time t2) override {
    return inner_->work(t1, t2);
  }
  double average_rate() const override { return inner_->average_rate(); }

  SampledTimer finish_;

 private:
  std::unique_ptr<sfq::net::RateProfile> inner_;
};

}  // namespace perfbench
