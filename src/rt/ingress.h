#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/packet.h"
#include "core/types.h"
#include "rt/spsc_ring.h"

namespace sfq::rt {

// One arrival crossing a producer ring: the packet plus the wall-clock stamp
// taken on the producer thread. The stamp doubles as the packet's arrival
// time at the engine (queueing delay measured from here includes time spent
// in the ring, which is honest: the ring *is* part of the queue).
struct IngressItem {
  Packet packet;
  Time t_ingress = 0.0;
};

// Sharded multi-producer ingress: one bounded SPSC ring per producer thread,
// so the arrival path is lock-free end to end — producers never contend with
// each other, and the single dispatcher merges ring heads by ingress stamp.
//
// Ordering note: a producer stamps, then pushes. Two packets stamped
// t1 < t2 on *different* producers can become visible to the dispatcher in
// either order, so the merge is best-effort arrival order (exact per
// producer, approximately global). That is sufficient: scheduler correctness
// only needs the dispatcher's own enqueue timestamps to be monotone, which
// they are (it re-reads the shared WallClock per call).
//
// Backpressure: a full ring is a counted drop (or a spin, for producers that
// must not lose packets), never a block inside the scheduler — the same
// philosophy as PR 2's overload policies, applied one stage earlier.
class Ingress {
 public:
  Ingress(std::size_t producers, std::size_t ring_capacity);

  std::size_t producers() const { return shards_.size(); }
  std::size_t ring_capacity() const { return shards_[0]->ring.capacity(); }

  // Producer `i` only. Stamps the item with `now` and pushes. False when the
  // ring is full; with `count_full` (the default) the drop has then already
  // been counted against shard i. Blocking producers retry with
  // count_full = false so one lost packet is not counted once per spin.
  bool push(std::size_t i, Packet p, Time now, bool count_full = true);

  // Producer `i` only: records a backpressure drop that happened outside the
  // ring (e.g. an offer rejected because the engine stopped accepting).
  void count_drop(std::size_t i);

  // Dispatcher only: pops the earliest-stamped head across all rings (ties
  // to the lowest producer index).
  std::optional<IngressItem> pop_earliest();

  // Dispatcher only: true when every ring looked empty in one pass. Racy by
  // nature (a producer may push concurrently); callers use it for idle/stop
  // decisions, not correctness.
  bool empty() const;

  // Any thread (relaxed counters; pushes are read off the ring indices).
  uint64_t drops(std::size_t i) const;
  uint64_t total_pushed() const;
  uint64_t total_drops() const;

 private:
  struct Shard {
    explicit Shard(std::size_t capacity) : ring(capacity) {}
    SpscRing<IngressItem> ring;
    alignas(kCacheLineBytes) std::atomic<uint64_t> drops{0};
  };
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sfq::rt
