#include "rt/ingress.h"

#include <stdexcept>
#include <utility>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#else
#include <thread>
#endif

namespace sfq::rt {

Ingress::Ingress(std::size_t producers, std::size_t ring_capacity) {
  if (producers == 0) throw std::invalid_argument("Ingress: producers == 0");
  if (ring_capacity < 2)
    throw std::invalid_argument("Ingress: ring_capacity < 2");
  shards_.reserve(producers);
  for (std::size_t i = 0; i < producers; ++i)
    shards_.push_back(std::make_unique<Shard>(ring_capacity));
}

bool Ingress::push(std::size_t i, Packet p, Time now, bool count_full) {
  Shard& s = *shards_[i];
  IngressItem item;
  item.packet = std::move(p);
  item.packet.arrival = now;
  item.t_ingress = now;
  if (s.ring.try_push(std::move(item))) {
    if (word().load(std::memory_order_relaxed)) [[unlikely]] wake();
    return true;
  }
  if (count_full) s.drops.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void Ingress::count_drop(std::size_t i) {
  shards_[i]->drops.fetch_add(1, std::memory_order_relaxed);
}

std::optional<IngressItem> Ingress::pop_earliest() {
  SpscRing<IngressItem>* best = nullptr;
  Time best_t = 0.0;
  for (auto& shard : shards_) {
    if (IngressItem* head = shard->ring.front()) {
      if (!best || head->t_ingress < best_t) {
        best = &shard->ring;
        best_t = head->t_ingress;
      }
    }
  }
  if (!best) return std::nullopt;
  IngressItem out = std::move(*best->front());
  best->pop();
  return out;
}

static_assert(std::atomic_ref<uint32_t>::is_always_lock_free);

void Ingress::wake() {
  if (word().exchange(0, std::memory_order_seq_cst) == 0) return;
#if defined(__linux__)
  syscall(SYS_futex, &parked_, FUTEX_WAKE_PRIVATE, 1, nullptr, nullptr, 0);
#endif
}

Ingress::Park Ingress::wait_parked(std::chrono::nanoseconds backstop) {
  bool expired = true;
#if defined(__linux__)
  const auto ns = backstop.count();
  const timespec ts{static_cast<time_t>(ns / 1'000'000'000),
                    static_cast<long>(ns % 1'000'000'000)};
  // Returns at once when the word is no longer 1 (a wake got in first).
  expired = syscall(SYS_futex, &parked_, FUTEX_WAIT_PRIVATE, 1, &ts, nullptr,
                    0) != 0 &&
            errno == ETIMEDOUT;
#else
  std::this_thread::sleep_for(backstop);
#endif
  // Whoever takes the 1 out of the word ended the park.
  if (word().exchange(0, std::memory_order_relaxed) == 0) return Park::kWoken;
  return expired && !empty() ? Park::kMissedWake : Park::kExpired;
}

bool Ingress::empty() const {
  for (const auto& shard : shards_)
    if (!shard->ring.empty()) return false;
  return true;
}

uint64_t Ingress::drops(std::size_t i) const {
  return shards_[i]->drops.load(std::memory_order_relaxed);
}

uint64_t Ingress::total_pushed() const {
  uint64_t n = 0;
  for (const auto& shard : shards_) n += shard->ring.pushed();
  return n;
}

uint64_t Ingress::total_drops() const {
  uint64_t n = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) n += drops(i);
  return n;
}

}  // namespace sfq::rt
