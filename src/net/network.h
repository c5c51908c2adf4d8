#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "net/rate_profile.h"
#include "net/scheduled_server.h"
#include "sim/simulator.h"

namespace sfq::net {

// A tandem of K servers with propagation delays between them — the topology
// of the end-to-end analysis (§2.4). All flows traverse every hop in order;
// flow ids are registered identically at each hop.
//
// The network records nothing itself: a caller attaches a
// stats::ServiceRecorder with server(i).set_recorder() at the hops it reads
// (a per-hop transmission log costs memory and time on every packet-hop),
// and counts deliveries in the set_delivery() callback.
class TandemNetwork {
 public:
  struct Hop {
    std::unique_ptr<Scheduler> scheduler;
    std::unique_ptr<RateProfile> profile;
    Time propagation_to_next = 0.0;  // tau^{i,i+1}
  };

  using DeliveryFn = std::function<void(const Packet&, Time)>;

  TandemNetwork(sim::Simulator& sim, std::vector<Hop> hops);

  // The hop-wiring callbacks capture `this`; the network must stay put.
  TandemNetwork(const TandemNetwork&) = delete;
  TandemNetwork& operator=(const TandemNetwork&) = delete;
  TandemNetwork(TandemNetwork&&) = delete;
  TandemNetwork& operator=(TandemNetwork&&) = delete;

  FlowId add_flow(double weight, double max_packet_bits = 0.0,
                  std::string name = {});

  // Injects at the first hop. `p.source_departure` should already be set by
  // the caller (source emission time).
  void inject(Packet p);

  void set_delivery(DeliveryFn fn) { delivery_ = std::move(fn); }

  std::size_t hop_count() const { return servers_.size(); }
  ScheduledServer& server(std::size_t i) { return *servers_.at(i); }
  Scheduler& scheduler(std::size_t i) { return *schedulers_.at(i); }

 private:
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<Scheduler>> schedulers_;
  std::vector<std::unique_ptr<ScheduledServer>> servers_;
  std::vector<Time> propagation_;
  DeliveryFn delivery_;
};

}  // namespace sfq::net
