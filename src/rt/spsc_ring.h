#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace sfq::rt {

// Alignment for index variables so producer and consumer never share a cache
// line (the classic false-sharing trap of ring buffers). 64 bytes covers
// every target we build for; std::hardware_destructive_interference_size is
// deliberately avoided because GCC warns that its value is ABI-fragile.
inline constexpr std::size_t kCacheLineBytes = 64;

// Bounded lock-free single-producer/single-consumer ring (a Lamport queue
// with cached indices). One thread may call the producer API (try_push), one
// thread the consumer API (front/pop/try_pop); size() is safe from any
// thread but only approximate while both sides are running.
//
// Indices are free-running 64-bit counters; the slot is index & mask, so
// wraparound needs no modular case analysis and full/empty are simply
// tail - head == capacity / tail == head. Each side caches the other's
// index and re-reads it only on apparent full/empty, so the steady-state
// hot path costs one relaxed load + one release store per operation and no
// shared-line ping-pong.
template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2).
  explicit SpscRing(std::size_t min_capacity) {
    std::size_t cap = 2;
    while (cap < min_capacity) cap <<= 1;
    slots_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return slots_.size(); }

  // Producer thread only. False when the ring is full.
  bool try_push(T v) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= slots_.size()) return false;
    }
    slots_[tail & mask_] = std::move(v);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer thread only: the oldest element, or nullptr when empty. The
  // pointer stays valid until pop(); the producer cannot overwrite the slot
  // because head_ has not advanced.
  T* front() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return nullptr;
    }
    return &slots_[head & mask_];
  }

  // Consumer thread only. Precondition: front() returned non-null.
  void pop() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if constexpr (!std::is_trivially_destructible_v<T>)
      slots_[head & mask_] = T{};  // release resources held by the slot
    head_.store(head + 1, std::memory_order_release);
  }

  // Consumer thread only.
  bool try_pop(T& out) {
    T* f = front();
    if (!f) return false;
    out = std::move(*f);
    pop();
    return true;
  }

  // Any thread; exact only when both sides are quiescent.
  std::size_t size() const {
    const uint64_t t = tail_.load(std::memory_order_acquire);
    const uint64_t h = head_.load(std::memory_order_acquire);
    return t >= h ? static_cast<std::size_t>(t - h) : 0;
  }
  bool empty() const { return size() == 0; }

  // Any thread: elements pushed so far (the free-running producer index).
  uint64_t pushed() const { return tail_.load(std::memory_order_relaxed); }

 private:
  std::vector<T> slots_;
  std::size_t mask_ = 0;
  alignas(kCacheLineBytes) std::atomic<uint64_t> head_{0};  // consumer index
  alignas(kCacheLineBytes) std::atomic<uint64_t> tail_{0};  // producer index
  alignas(kCacheLineBytes) uint64_t head_cache_ = 0;  // producer's view of head_
  alignas(kCacheLineBytes) uint64_t tail_cache_ = 0;  // consumer's view of tail_
};

}  // namespace sfq::rt
