#include "core/sfq_scheduler.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace sfq {

namespace {
std::atomic<bool> g_tag_bug{false};
}  // namespace

void SfqScheduler::set_tag_bug_for_test(bool on) {
  g_tag_bug.store(on, std::memory_order_relaxed);
}

SfqScheduler::SfqScheduler(const SfqOptions& options)
    : options_(options),
      use_wheel_(options.core == SfqCore::kWheel),
      // The wheel member always needs a valid quantum; in heap mode it is
      // never touched, so any positive placeholder does.
      wheel_(use_wheel_ ? options.wheel_quantum : 1.0) {
  if (use_wheel_ && options_.tie_break != TieBreak::kFifo)
    throw std::invalid_argument(
        "SFQ wheel core supports only TieBreak::kFifo (in-bucket order is "
        "admission order)");
}

FlowId SfqScheduler::add_flow(double weight, double max_packet_bits,
                              std::string name) {
  if (options_.flow_gc) reclaim_retired();
  FlowId id = Scheduler::add_flow(weight, max_packet_bits, std::move(name));
  if (id < flow_state_.size()) {
    // Recycled id (flow_gc): resetting F_prev to 0 is exactly the paper's
    // rejoin rule, because reclaim only happens once F_prev <= v(t) — the
    // next start tag max(v, 0) = v = max(v, F_prev) either way.
    flow_state_[id] = FlowState{};
  } else {
    flow_state_.push_back(FlowState{});
  }
  queues_.ensure(id);
  return id;
}

void SfqScheduler::reclaim_retired() {
  while (!retired_.empty() && retired_.top_key().finish <= vtime_) {
    const FlowId id = retired_.top_id();
    retired_.pop();
    flows_.reclaim(id);
  }
}

void SfqScheduler::reserve_flows(std::size_t n) {
  flows_.reserve(n);
  flow_state_.reserve(n);
  queues_.reserve(n);
  if (use_wheel_) wheel_.reserve(n);
  else ready_.reserve(n);
  if (options_.flow_gc) retired_.reserve(n);
}

double SfqScheduler::tiebreak_value(FlowId f) const {
  switch (options_.tie_break) {
    case TieBreak::kFifo: return 0.0;
    case TieBreak::kLowWeightFirst: return flows_.weight(f);
    case TieBreak::kHighWeightFirst: return -flows_.weight(f);
  }
  return 0.0;
}

void SfqScheduler::push_head(FlowId f) {
  const Packet& head = queues_.head(f);
  if (use_wheel_) {
    // v(t) is the re-anchor floor: every future tag is >= it (monotone in
    // wheel mode), while head.start_tag may be far ahead of tags to come.
    wheel_.push_or_update(f, head.start_tag, vtime_);
  } else {
    ready_.push_or_update(
        f, TagKey{head.start_tag, tiebreak_value(f), head.sched_order});
  }
}

FlowId SfqScheduler::ready_top() {
  return use_wheel_ ? wheel_.top_id() : ready_.top_id();
}

void SfqScheduler::ready_erase_if_present(FlowId f) {
  if (use_wheel_) {
    if (wheel_.contains(f)) wheel_.erase(f);
  } else {
    if (ready_.contains(f)) ready_.erase(f);
  }
}

bool SfqScheduler::enqueue(Packet p, Time now) {
  if (!admit(p, now)) return false;
  FlowState& st = flow_state_[p.flow];

  p.start_tag = std::max(vtime_, st.last_finish);
  if (g_tag_bug.load(std::memory_order_relaxed) && p.seq % 3 == 0)
    p.start_tag = vtime_;  // injected bug: forgot F(p_f^{j-1}) — eq. 4 broken
  const double rate = p.rate > 0.0 ? p.rate : flows_.weight(p.flow);
  p.finish_tag = p.start_tag + p.length_bits / rate;
  st.last_finish = p.finish_tag;

  const FlowId f = p.flow;
  const bool was_empty = queues_.flow_empty(f);
  p.sched_order = ++enqueue_seq_;
  trace_tag(p, now, vtime_, queues_.packets() + 1);
  queues_.push(std::move(p));
  if (was_empty) push_head(f);
  return true;
}

std::optional<Packet> SfqScheduler::dequeue(Time now) {
  if (ready_empty()) return std::nullopt;
  FlowId f = ready_top();
  Packet p = queues_.pop(f);

  // v(t) is the start tag of the packet in service (§2 rule 2). The wheel
  // serves quantized-tag order, so a true tag may sit up to one quantum
  // below the previous one; clamp keeps v(t) monotone (each tag formula
  // already maxes against v, and the invariant checker asserts monotonicity
  // with no slack — the slack applies to *served tag order* only).
  if (use_wheel_) vtime_ = std::max(vtime_, p.start_tag);
  else vtime_ = p.start_tag;
  in_service_ = true;

  if (!queues_.flow_empty(f)) {
    const Packet& head = queues_.head(f);
    if (use_wheel_) {
      wheel_.update(f, head.start_tag, vtime_);
    } else {
      // Re-key the root in place (one sift) instead of erase + push (two).
      ready_.update(f, TagKey{head.start_tag, tiebreak_value(f),
                              head.sched_order});
    }
  } else {
    if (use_wheel_) wheel_.pop();
    else ready_.pop();
  }
  trace_dequeue(p, now, vtime_, queues_.packets());
  return p;
}

std::vector<Packet> SfqScheduler::remove_flow(FlowId f, Time now) {
  Scheduler::remove_flow(f, now);  // validates f, marks it inactive
  ready_erase_if_present(f);
  std::vector<Packet> out = queues_.drain(f);
  if (!out.empty()) {
    // Roll F_prev back as if the flushed packets never arrived. Setting it to
    // the first flushed start tag S_1 = max(v(A_1), F_0) is equivalent to
    // restoring F_0: a later arrival computes max(v', S_1) with v' >= v(A_1)
    // (virtual time is monotone), which equals max(v', F_0).
    flow_state_[f].last_finish = out.front().start_tag;
  }
  if (options_.flow_gc) {
    // Retire the id. It becomes reclaimable once v(t) has passed its F_prev:
    // from then on a fresh flow under the recycled id tags its first packet
    // max(v, 0) = v = max(v, F_prev) — indistinguishable from a rejoin, so
    // both the paper semantics and the invariant checker's per-flow
    // "start >= previous finish" chain carry over unchanged.
    if (!retired_.contains(f))  // idempotent under repeated removal
      retired_.push(f, RetireKey{flow_state_[f].last_finish, f});
  }
  return out;
}

void SfqScheduler::rejoin_flow(FlowId f, Time now) {
  // An id that is retired but not yet reclaimed can still rejoin (the
  // sharded engine parks non-resident flows this way); cancel the pending
  // retirement. A reclaimed id throws out_of_range from set_active — by then
  // the id belongs to the free list (or a new flow).
  if (options_.flow_gc && retired_.contains(f)) retired_.erase(f);
  Scheduler::rejoin_flow(f, now);
}

std::optional<Packet> SfqScheduler::pushout(FlowId f, Time now) {
  (void)now;
  if (queues_.flow_empty(f)) return std::nullopt;
  Packet victim = queues_.pop_back(f);
  // Undo the victim's tag advance (same rollback argument as remove_flow).
  flow_state_[f].last_finish = victim.start_tag;
  // Popping the tail only changes the head when the queue emptied.
  if (queues_.flow_empty(f)) ready_erase_if_present(f);
  return victim;
}

void SfqScheduler::on_transmit_complete(const Packet& p, Time now) {
  in_service_ = false;
  max_finish_serviced_ = std::max(max_finish_serviced_, p.finish_tag);
  if (ready_empty() && queues_.packets() == 0) {
    // End of busy period: v jumps to the max finish tag serviced (§2 rule 2),
    // so flows that idle cannot bank credit for the future.
    if (max_finish_serviced_ > vtime_) {
      vtime_ = max_finish_serviced_;
      trace_vtime(now, vtime_, 0);
    }
  }
}

}  // namespace sfq
