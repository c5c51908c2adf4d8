#include "net/priority_server.h"

#include <utility>

namespace sfq::net {

PriorityServer::PriorityServer(sim::Simulator& sim, Scheduler& low_sched,
                               std::unique_ptr<RateProfile> profile)
    : sim_(sim),
      low_sched_(low_sched),
      profile_(std::move(profile)),
      slot_(sim.add_slot(this)) {}

void PriorityServer::inject_high(Packet p) {
  p.arrival = sim_.now();
  high_q_.push_back(std::move(p));
  try_start();
}

void PriorityServer::inject_low(Packet p) {
  const Time now = sim_.now();
  p.arrival = now;
  if (recorder_) recorder_->on_arrival(p.flow, now);
  low_sched_.enqueue(std::move(p), now);
  try_start();
}

double PriorityServer::high_backlog_bits() const {
  double b = 0.0;
  for (const Packet& p : high_q_) b += p.length_bits;
  return b;
}

void PriorityServer::try_start() {
  if (sim_.armed(slot_)) return;
  const Time now = sim_.now();
  tx_high_ = !high_q_.empty();
  if (tx_high_) {
    tx_ = high_q_.front();
    high_q_.pop_front();
  } else {
    std::optional<Packet> next = low_sched_.dequeue(now);
    if (!next) return;
    tx_ = *next;
  }
  tx_start_ = now;
  sim_.arm(slot_, profile_->finish_time(now, tx_.length_bits));
}

void PriorityServer::on_event(sim::Event& ev, Time now) {
  if (ev.op != sim::EventOp::kSlotFired) return;
  // Copied out first: a departure callback may re-enter the server and start
  // the next transmission over tx_.
  const Packet p = tx_;
  if (tx_high_) {
    if (on_high_dep_) on_high_dep_(p, now);
  } else {
    low_sched_.on_transmit_complete(p, now);
    if (recorder_)
      recorder_->on_service(p.flow, p.length_bits, p.arrival, tx_start_, now);
    if (on_low_dep_) on_low_dep_(p, now);
  }
  try_start();
}

}  // namespace sfq::net
