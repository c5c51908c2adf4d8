#pragma once

#include <atomic>
#include <chrono>
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
//
// Doorbell: an idle dispatcher parks on one word next to the rings, and the
// push that ends the idleness wakes it (docs/REALTIME.md "Wait strategy").
class Ingress {
 public:
  Ingress(std::size_t producers, std::size_t ring_capacity);

  std::size_t producers() const { return shards_.size(); }
  std::size_t ring_capacity() const { return shards_[0]->ring.capacity(); }

  // Producer `i` only. Stamps the item with `now` and pushes. False when the
  // ring is full; with `count_full` (the default) the drop has then already
  // been counted against shard i. Blocking producers retry with
  // count_full = false so one lost packet is not counted once per spin.
  // A successful push rings the doorbell when the dispatcher is parked.
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

  // How a park() ended.
  enum class Park : uint8_t {
    kSkipped,     // a ring held an item, or pending() held, once parked
    kWoken,       // a push or wake() rang the doorbell
    kExpired,     // the backstop ran out with every ring empty
    kMissedWake,  // the backstop ran out with an item in a ring: a push
                  // raced the park and did not see the parked word
  };

  // Dispatcher only: waits until a push or wake() rings the doorbell, or
  // until `backstop` has passed. The word is published first; then every
  // ring and `pending()` (the caller's own wake conditions, e.g. stop) are
  // checked once more, so a wake() issued after `pending()` turned true is
  // never lost. A push does not fence, so its wake can be missed; the
  // backstop bounds what a miss costs.
  template <typename Pending>
  Park park(std::chrono::nanoseconds backstop, Pending&& pending) {
    // A seq_cst store rather than a fence (ThreadSanitizer does not model
    // fences): it orders the word against the seq_cst loads in pending()
    // and wake()'s exchange.
    word().store(1, std::memory_order_seq_cst);
    if (!empty() || pending()) {
      word().store(0, std::memory_order_relaxed);
      return Park::kSkipped;
    }
    return wait_parked(backstop);
  }

  // Any thread: ends a park in progress. Callers that change one of the
  // dispatcher's pending() conditions store it seq_cst, then call this.
  void wake();

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
  Park wait_parked(std::chrono::nanoseconds backstop);
  std::atomic_ref<uint32_t> word() { return std::atomic_ref(parked_); }

  std::vector<std::unique_ptr<Shard>> shards_;
  // The doorbell word, 1 while the dispatcher is parked, and the futex the
  // park waits on; accessed only through word(). Producers read it once per
  // push and only the dispatcher sets it, so the line stays shared while
  // the dispatcher is busy.
  alignas(kCacheLineBytes) uint32_t parked_ = 0;
};

}  // namespace sfq::rt
