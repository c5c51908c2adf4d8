#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"

namespace sfq::stats {

// Exact record of what a server did: one entry per completed packet
// transmission, in service order, plus per-flow backlogged intervals
// (a flow is backlogged from a packet arrival until its last queued packet
// finishes service). This is the ground truth every fairness / delay /
// throughput measurement is computed from.
//
// The recorder sits on one server, so a transmission ends no earlier than it
// starts and starts no earlier than the previous one ended (on_service
// throws otherwise): starts and ends both rise in service order. A per-flow index of each flow's transmissions lets
// per-flow queries and the pairwise fairness scan skip other flows' packets.
class ServiceRecorder {
 public:
  struct Transmission {
    FlowId flow;
    double bits;
    Time start;
    Time end;
    Time arrival;  // arrival of this packet at the server
  };
  struct Interval {
    Time begin;
    Time end;
  };

  void on_arrival(FlowId f, Time t);
  void on_service(FlowId f, double bits, Time arrival, Time start, Time end);
  // Call at the end of a run so still-open backlog intervals get closed.
  void finish(Time t);

  const std::vector<Transmission>& transmissions() const { return tx_; }
  const std::vector<Interval>& backlog_intervals(FlowId f) const;
  // Positions in transmissions() of flow f's packets, in service order.
  const std::vector<uint32_t>& flow_transmissions(FlowId f) const;

  // Aggregate length of flow-f packets served with start>=t1 and end<=t2
  // (the paper's W_f(t1,t2): whole packets only).
  double served_bits(FlowId f, Time t1, Time t2) const;
  double served_bits(FlowId f) const;
  uint64_t served_packets(FlowId f) const;

  // Was f backlogged during the whole of [t1, t2]?
  bool backlogged_throughout(FlowId f, Time t1, Time t2) const;

 private:
  void ensure(FlowId f);

  std::vector<Transmission> tx_;
  std::vector<std::vector<uint32_t>> by_flow_;  // tx_ positions per flow
  std::vector<std::vector<Interval>> backlog_;  // closed intervals per flow
  std::vector<uint32_t> outstanding_;           // queued-or-in-service count
  std::vector<Time> open_since_;                // begin of open interval
};

}  // namespace sfq::stats
