// Layer replays: one public entry point of one module, driven on its own
// with the workload's inputs, outside the engine. Each returns the median
// over several rounds of nanoseconds per call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// rt::Ingress::pop_earliest across `producers` rings holding interleaved
// stamps (the dispatcher's merge step).
double replay_ingress_pop_ns(std::size_t producers);

// FlowTable::active over `flows` in the workload's arrival order, on a table
// holding `table_size` equal-weight flows.
double replay_flow_table_active_ns(std::size_t table_size,
                                   const std::vector<uint32_t>& flows);

// sim::EventQueue schedule_packet + pop with `depth` events pending after
// the schedule (depth 1 = the rt engine's single transmission timer).
double replay_event_queue_cycle_ns(std::size_t depth, uint64_t seed);

// telemetry::LockFreeHistogram::record_seconds_single_writer with
// latency-like values, and Telemetry::Writer::inc.
double replay_telemetry_record_ns(uint64_t seed);
double replay_telemetry_inc_ns();

// rt::ShardRouter::shard_of over `flows`.
double replay_route_ns(std::size_t shards, const std::vector<uint32_t>& flows);

}  // namespace perfbench
