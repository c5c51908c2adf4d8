#include "net/network.h"

#include <stdexcept>
#include <utility>

namespace sfq::net {

TandemNetwork::TandemNetwork(sim::Simulator& sim, std::vector<Hop> hops)
    : sim_(sim) {
  if (hops.empty()) throw std::invalid_argument("TandemNetwork: no hops");
  for (auto& h : hops) {
    schedulers_.push_back(std::move(h.scheduler));
    servers_.push_back(std::make_unique<ScheduledServer>(
        sim_, *schedulers_.back(), std::move(h.profile)));
    propagation_.push_back(h.propagation_to_next);
  }
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const bool last = i + 1 == servers_.size();
    const Time tau = propagation_[i];
    servers_[i]->set_departure([this, i, last, tau](const Packet& p, Time t) {
      Packet next = p;
      ++next.hops;
      if (last) {
        if (delivery_) delivery_(next, t);
        return;
      }
      if (tau > 0.0) {
        sim_.at_packet(t + tau, sim::EventOp::kArrival,
                       servers_[i + 1].get(), next);
      } else {
        servers_[i + 1]->inject(std::move(next));
      }
    });
  }
}

FlowId TandemNetwork::add_flow(double weight, double max_packet_bits,
                               std::string name) {
  FlowId id = kInvalidFlow;
  for (auto& s : schedulers_) {
    FlowId got = s->add_flow(weight, max_packet_bits, name);
    if (id == kInvalidFlow) id = got;
    else if (got != id)
      throw std::logic_error("TandemNetwork: inconsistent flow ids per hop");
  }
  return id;
}

void TandemNetwork::inject(Packet p) { servers_.front()->inject(std::move(p)); }

}  // namespace sfq::net
