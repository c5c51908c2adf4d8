#include "sim/event_queue.h"

#include <stdexcept>
#include <utility>

namespace sfq::sim {

uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNilSlot) {
    const uint32_t slot = free_head_;
    free_head_ = next_free_[slot];
    return slot;
  }
  const uint32_t slot = slot_count_++;
  if ((slot & kChunkMask) == 0)
    chunks_.push_back(std::make_unique<Event[]>(kChunkSize));
  gens_.push_back(0);
  next_free_.push_back(kNilSlot);
  return slot;
}

uint32_t EventQueue::acquire_fn_slot(std::function<void()> fn) {
  if (!fn_free_.empty()) {
    const uint32_t slot = fn_free_.back();
    fn_free_.pop_back();
    fns_[slot] = std::move(fn);
    return slot;
  }
  fns_.push_back(std::move(fn));
  return static_cast<uint32_t>(fns_.size() - 1);
}

void EventQueue::release_fn_slot(uint32_t slot) {
  fns_[slot] = nullptr;  // destroy captured state now, not lazily
  fn_free_.push_back(slot);
}

EventId EventQueue::schedule(Time when, Event ev) {
  const uint32_t slot = acquire_slot();
  event_at(slot) = ev;
  heap_.push(slot, EventKey{when, next_seq_++});
  return make_id(slot, gens_[slot]);
}

EventId EventQueue::schedule(Time when, std::function<void()> action) {
  Event ev;
  ev.op = EventOp::kCallback;
  ev.fn_slot = acquire_fn_slot(std::move(action));
  return schedule(when, ev);
}

SlotId EventQueue::add_slot(EventTarget* target) {
  Event& ev = slot_events_.emplace_back();
  ev.op = EventOp::kSlotFired;
  ev.target = target;
  ev.aux = static_cast<uint32_t>(slot_events_.size() - 1);
  return ev.aux;
}

void EventQueue::throw_bad_arm() {
  throw std::logic_error("EventQueue: arm() of an armed or unknown slot");
}

void EventQueue::cancel(EventId id) {
  if (id == kInvalidEvent) return;
  const uint32_t slot = static_cast<uint32_t>(id & 0xffffffffu) - 1;
  if (slot >= slot_count_) return;
  // Generation mismatch => the referenced event already fired or was already
  // cancelled (the slot may even hold a newer event). Guaranteed no-op.
  if (gens_[slot] != static_cast<uint32_t>(id >> 32)) return;
  if (!heap_.contains(slot)) return;  // belt and braces; gen should cover it
  heap_.erase(slot);
  // Eager: unlink from the heap AND destroy any captured closure state now,
  // not when the entry would have drifted to the heap top.
  if (event_at(slot).op == EventOp::kCallback)
    release_fn_slot(event_at(slot).fn_slot);
  release_slot(slot);
}

Time EventQueue::run_one() {
  Popped p;
  if (!pop(p)) return kTimeInfinity;
  if (p.event.op == EventOp::kCallback)
    p.fn();
  else
    p.event.target->on_event(p.event, p.when);
  return p.when;
}

}  // namespace sfq::sim
