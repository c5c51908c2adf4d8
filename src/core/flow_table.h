#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace sfq {

// Static description of a flow at a server: the hot per-flow record, kept to
// 32 bytes so a million-flow table stays a flat 32 MB array. Names live in a
// cold side store (FlowTable::name).
struct FlowSpec {
  FlowId id = kInvalidFlow;     // kInvalidFlow marks a reclaimed (dead) slot
  bool active = true;           // false while the flow has left (churn)
  bool has_key = false;
  double weight = 1.0;          // r_f: weight, interpreted as a rate (bits/s)
  double max_packet_bits = 0.0; // l_f^max, used by analytic bounds
  uint64_t key = 0;             // external lookup key (valid iff has_key)
};

// Registry of flows known to a scheduler. Flow ids are dense small integers
// handed out by `add`, so schedulers can keep per-flow state in vectors.
//
// Lifecycle of an id:
//   * live + active   — normal forwarding state.
//   * live + inactive — the flow has left (set_active(false)); its id and tag
//     state stay reserved for rejoin, packets for it are dropped, and the
//     weight aggregates release its share.
//   * dead            — `reclaim(id)` returned the slot to a LIFO free list;
//     the next `add` reuses it (churn no longer grows the table — the
//     flow-id-leak fix). Reclaiming is only tag-safe under the condition
//     documented at SfqScheduler's GC (F_prev <= v(t)).
//
// Out-of-range / dead-id contract (unified — previously `active()` silently
// returned false past the end while `spec()`/`set_active()` threw):
//   * `active(id)` and `contains(id)` are total: false for any id that is not
//     live, including ids >= size() and kInvalidFlow.
//   * `spec()`, `weight()`, `name()`, `set_active()` throw std::out_of_range
//     for any id that is not live, including kInvalidFlow and reclaimed ids.
//   * `size()` stays the slot-universe bound (every live id < size()), so
//     `for (FlowId f = 0; f < size(); ++f) if (active(f)) ...` loops remain
//     valid with dead slots present.
//
// Aggregates (total_weight() & co.) are maintained incrementally on
// add/reclaim/set_active — O(1) per call instead of the former O(n) rescans —
// with a periodic exact rebuild bounding floating-point drift.
class FlowTable {
 public:
  // An empty name stores nothing: name() then reports "flow<id>".
  FlowId add(double weight, double max_packet_bits = 0.0, std::string name = {});

  // Returns a dead id to the free list for reuse by `add`. The id must be
  // live; its key binding and name (if any) are dropped. The caller owns the
  // tag-safety argument (see SfqScheduler's GC).
  void reclaim(FlowId id);

  const FlowSpec& spec(FlowId id) const { return live_ref(id); }
  // The name given to `add`, or "flow<id>" when none was given (for reports).
  std::string name(FlowId id) const;
  double weight(FlowId id) const { return live_ref(id).weight; }
  std::size_t size() const { return slots_.size(); }
  std::size_t live_count() const { return live_count_; }
  // All slots, dead ones included (dead slots have id == kInvalidFlow and
  // active == false). For iteration that predates `contains`; prefer
  // `for f in [0, size())` + `contains/active` in new code.
  const std::vector<FlowSpec>& slots() const { return slots_; }

  bool contains(FlowId id) const {
    return id < slots_.size() && slots_[id].id == id;
  }
  bool active(FlowId id) const {
    return id < slots_.size() && slots_[id].active;
  }
  void set_active(FlowId id, bool active);

  // External-key index (open addressing, linear probing): lets callers map a
  // stable 64-bit identity (e.g. a connection hash) to the current dense id
  // across reclaim/re-add cycles. A key may be bound to at most one live
  // flow; reclaim() unbinds automatically.
  void bind_key(uint64_t key, FlowId id);
  FlowId find(uint64_t key) const;

  // Pre-sizes the slot array and the free list for n concurrently-live
  // flows, so add/reclaim never allocate (flow-scale bench's zero-alloc
  // steady-state gate); neither is written until flows arrive. For the key
  // index it only records n: the first bind_key builds the index for n keys,
  // so a table that never binds a key carries none. Call it before binding
  // keys; an index already built grows by doubling.
  void reserve(std::size_t n);

  // Aggregates below count active flows only, so a departed flow releases
  // its share of the link (admission checks sum r_n <= C on what is present).
  // Sum of weights — admission control checks sum r_n <= C.
  double total_weight() const { return total_weight_; }
  // Sum over flows of l_n^max (appears in Theorem 2's bound).
  double total_max_packet_bits() const { return total_max_packet_bits_; }
  // Sum over n != f of l_n^max / C (appears in Theorem 4's bound).
  double sum_other_max_packets(FlowId f) const {
    return total_max_packet_bits_ - (active(f) ? slots_[f].max_packet_bits : 0.0);
  }

 private:
  struct KeyEntry {
    uint64_t key = 0;
    FlowId id = kInvalidFlow;  // kInvalidFlow == empty probe slot
  };

  const FlowSpec& live_ref(FlowId id) const;
  FlowSpec& live_ref(FlowId id);
  void release_aggregates(const FlowSpec& s);
  void acquire_aggregates(const FlowSpec& s);
  void maybe_rebuild_aggregates();
  void rebuild_aggregates();
  void unbind_key(uint64_t key);
  void rehash_keys(std::size_t capacity);
  std::size_t probe_start(uint64_t key) const;

  std::vector<FlowSpec> slots_;
  std::vector<FlowId> free_list_;  // LIFO: id assignment is a deterministic
                                   // function of the add/reclaim history
  std::vector<KeyEntry> keys_;     // power-of-two open-addressing index
  std::size_t keys_used_ = 0;
  std::size_t first_key_capacity_ = 16;  // raised by reserve(n) to fit n
  // Names given to `add`, by id; empty past the highest named id and for
  // unnamed flows, so a table without names carries no name storage.
  std::vector<std::string> names_;
  std::size_t live_count_ = 0;
  double total_weight_ = 0.0;
  double total_max_packet_bits_ = 0.0;
  // Incremental float aggregates drift by ~ulp per update; rebuild exactly
  // every O(size) mutations so drift stays O(ulp * size) — far below the
  // epsilons any admission/bound check uses.
  std::size_t aggregate_ops_ = 0;
};

}  // namespace sfq
