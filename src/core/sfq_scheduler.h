#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/calendar_queue.h"
#include "core/indexed_heap.h"
#include "core/scheduler.h"

namespace sfq {

// Tie-breaking rule used when two head packets carry equal start tags
// (paper §2: "ties are broken arbitrarily (some tie breaking rules may be
// more desirable than others)").
enum class TieBreak {
  kFifo,            // earlier-enqueued head wins (deterministic default)
  kLowWeightFirst,  // favour low-throughput (interactive) flows — §2.3
  kHighWeightFirst, // favour high-throughput flows
};

// Which ready-queue structure orders backlogged flows by head start tag.
enum class SfqCore {
  kHeap,   // IndexedHeap: exact tag order, O(log Q) per packet
  kWheel,  // CalendarQueue: tag order quantized to `wheel_quantum`,
           // O(1) amortized per packet independent of Q (flow-scale core);
           // costs a documented 2*quantum extra fairness slack
};

struct SfqOptions {
  TieBreak tie_break = TieBreak::kFifo;
  SfqCore core = SfqCore::kHeap;
  // Bucket width of the wheel in virtual seconds; must be > 0 for kWheel.
  // The config layer defaults it to l_max / C (one max-packet service time at
  // full link rate), which keeps the extra fairness slack (2*quantum) far
  // below the Theorem-1 bound term l_f/r_f.
  double wheel_quantum = 0.0;
  // Idle-flow GC: a removed flow's id is retired and reclaimed (returned to
  // FlowTable's free list for reuse by add_flow) once it is tag-safe —
  // see retire/reclaim comments in the .cc. Off by default: the sharded RT
  // engine's unified registration removes/rejoins ids and must keep them.
  bool flow_gc = false;
};

// Start-time Fair Queuing (paper §2, eqs. 4–5 and the generalized form
// eq. 36).
//
//   S(p_f^j) = max{ v(A(p_f^j)), F(p_f^{j-1}) }
//   F(p_f^j) = S(p_f^j) + l_f^j / r_f^j          (r_f^j = flow weight unless
//                                                 the packet carries a rate)
//
// Packets are transmitted in increasing start-tag order. The server virtual
// time v(t) is the start tag of the packet in service; at the end of a busy
// period it becomes the maximum finish tag assigned to any serviced packet.
// v(t) never requires simulating a fluid system, which is what makes SFQ as
// cheap as SCFQ (O(log Q) per packet) yet fair on variable-rate servers.
//
// With SfqCore::kWheel the "increasing start-tag order" is relaxed to
// increasing *quantized* start-tag order (buckets of `wheel_quantum` virtual
// seconds, FIFO within a bucket): served tags regress by less than one
// quantum, and the fairness bound gains at most 2*quantum (derivation in
// docs/PERFORMANCE.md next to the Theorem 1 discussion). v(t) is clamped
// monotone across intra-bucket regressions.
class SfqScheduler : public Scheduler {
 public:
  explicit SfqScheduler(TieBreak tie_break = TieBreak::kFifo)
      : SfqScheduler(SfqOptions{tie_break}) {}
  explicit SfqScheduler(const SfqOptions& options);

  FlowId add_flow(double weight, double max_packet_bits = 0.0,
                  std::string name = {}) override;

  bool enqueue(Packet p, Time now) override;
  std::optional<Packet> dequeue(Time now) override;
  void on_transmit_complete(const Packet& p, Time now) override;

  std::vector<Packet> remove_flow(FlowId f, Time now) override;
  void rejoin_flow(FlowId f, Time now) override;
  std::optional<Packet> pushout(FlowId f, Time now) override;

  bool empty() const override { return queues_.packets() == 0; }
  std::size_t backlog_packets() const override { return queues_.packets(); }
  double backlog_bits(FlowId f) const override { return queues_.bits(f); }
  std::string name() const override {
    return use_wheel_ ? "SFQ-W" : "SFQ";
  }
  VirtualTime quantization_window() const override {
    return use_wheel_ ? options_.wheel_quantum : 0.0;
  }

  // Pre-sizes, for up to n concurrently-live flows, the per-flow structures
  // this configuration uses: the flow table (FlowTable::reserve; the key
  // index is sized on the first bind_key), tag state, queues, the ready
  // structure of the configured core only (heap or wheel), and the retire
  // heap only with flow_gc. Steady-state operation — churn with recycled ids
  // included — then performs no allocations beyond the packet slab's
  // high-water growth.
  void reserve_flows(std::size_t n);

  // Current server virtual time (exposed for tests and for the analytic
  // fairness checks, which are stated in the virtual-time domain).
  VirtualTime vtime() const { return vtime_; }

  // Finish tag of the last packet of flow f that has arrived (F(p_f^{j-1})
  // for the next arrival). Exposed for tests.
  VirtualTime last_finish_tag(FlowId f) const { return flow_state_.at(f).last_finish; }

  // Number of removed flows whose ids are retired but not yet tag-safe to
  // reclaim (flow_gc only; exposed for the bounded-table regression tests).
  std::size_t gc_pending() const { return retired_.size(); }

  // Test hook (chaos-harness self-test only): when set, every third packet
  // of a flow skips the max with F(p_f^{j-1}) and tags S = v(t) directly —
  // the classic tag-arithmetic bug eq. 4 exists to prevent. The harness must
  // detect it ("start tag regressed below previous finish") and shrink the
  // failing scenario; see tests/test_chaos_harness.cc. Process-global on
  // purpose: the harness builds schedulers behind the config factory and has
  // no handle to individual instances. Never set outside tests.
  static void set_tag_bug_for_test(bool on);

 private:
  struct FlowState {
    VirtualTime last_finish = 0.0;  // F(p_f^0) = 0
  };

  // Retirement order for GC'd ids: earliest-reclaimable first.
  struct RetireKey {
    double finish = 0.0;
    uint32_t id = 0;
    friend bool operator<(const RetireKey& a, const RetireKey& b) {
      if (a.finish != b.finish) return a.finish < b.finish;
      return a.id < b.id;
    }
  };

  double tiebreak_value(FlowId f) const;
  void push_head(FlowId f);
  void reclaim_retired();

  // Ready-structure dispatch: exactly one of ready_/wheel_ is in use, chosen
  // once at construction (use_wheel_ is a predictable branch on the hot path).
  FlowId ready_top();
  void ready_erase_if_present(FlowId f);
  bool ready_empty() const {
    return use_wheel_ ? wheel_.empty() : ready_.empty();
  }

  SfqOptions options_;
  bool use_wheel_ = false;
  PerFlowQueues queues_;
  std::vector<FlowState> flow_state_;
  IndexedHeap<TagKey> ready_;   // kHeap: backlogged flows by head start tag
  CalendarQueue wheel_;         // kWheel: same, quantized (unused for kHeap)
  IndexedHeap<RetireKey> retired_;  // flow_gc: removed ids awaiting reclaim
  VirtualTime vtime_ = 0.0;
  VirtualTime max_finish_serviced_ = 0.0;
  bool in_service_ = false;
  uint64_t enqueue_seq_ = 0;  // deterministic FIFO tie-break
};

}  // namespace sfq
