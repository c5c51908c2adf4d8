#include "stats/service_recorder.h"

#include <algorithm>
#include <stdexcept>

namespace sfq::stats {

void ServiceRecorder::ensure(FlowId f) {
  if (f >= backlog_.size()) {
    backlog_.resize(f + 1);
    by_flow_.resize(f + 1);
    outstanding_.resize(f + 1, 0);
    open_since_.resize(f + 1, 0.0);
  }
}

void ServiceRecorder::on_arrival(FlowId f, Time t) {
  ensure(f);
  if (outstanding_[f]++ == 0) open_since_[f] = t;
}

void ServiceRecorder::on_service(FlowId f, double bits, Time arrival,
                                 Time start, Time end) {
  ensure(f);
  if (outstanding_[f] == 0)
    throw std::logic_error("ServiceRecorder: service without arrival");
  if (end < start || (!tx_.empty() && start < tx_.back().end))
    throw std::logic_error("ServiceRecorder: service out of order");
  by_flow_[f].push_back(static_cast<uint32_t>(tx_.size()));
  tx_.push_back(Transmission{f, bits, start, end, arrival});
  if (--outstanding_[f] == 0)
    backlog_[f].push_back(Interval{open_since_[f], end});
}

void ServiceRecorder::finish(Time t) {
  for (FlowId f = 0; f < backlog_.size(); ++f) {
    if (outstanding_[f] > 0) {
      backlog_[f].push_back(Interval{open_since_[f], t});
      outstanding_[f] = 0;
    }
  }
}

const std::vector<ServiceRecorder::Interval>& ServiceRecorder::backlog_intervals(
    FlowId f) const {
  static const std::vector<Interval> kEmpty;
  return f < backlog_.size() ? backlog_[f] : kEmpty;
}

const std::vector<uint32_t>& ServiceRecorder::flow_transmissions(
    FlowId f) const {
  static const std::vector<uint32_t> kEmpty;
  return f < by_flow_.size() ? by_flow_[f] : kEmpty;
}

double ServiceRecorder::served_bits(FlowId f, Time t1, Time t2) const {
  // Starts and ends rise in service order: the packets inside [t1, t2] are
  // one run of f's list, from the first start >= t1 to the last end <= t2.
  const auto& idx = flow_transmissions(f);
  auto it = std::partition_point(idx.begin(), idx.end(),
                                 [&](uint32_t k) { return tx_[k].start < t1; });
  double w = 0.0;
  for (; it != idx.end() && tx_[*it].end <= t2; ++it) w += tx_[*it].bits;
  return w;
}

double ServiceRecorder::served_bits(FlowId f) const {
  double w = 0.0;
  for (uint32_t k : flow_transmissions(f)) w += tx_[k].bits;
  return w;
}

uint64_t ServiceRecorder::served_packets(FlowId f) const {
  return flow_transmissions(f).size();
}

bool ServiceRecorder::backlogged_throughout(FlowId f, Time t1, Time t2) const {
  for (const Interval& iv : backlog_intervals(f))
    if (iv.begin <= t1 && iv.end >= t2) return true;
  return false;
}

}  // namespace sfq::stats
