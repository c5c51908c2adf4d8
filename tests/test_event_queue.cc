#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace sfq::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(2.0, [&] { order.push_back(2); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(3.0, [&] { order.push_back(3); });
  while (q.run_one() != kTimeInfinity) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [&, i] { order.push_back(i); });
  while (q.run_one() != kTimeInfinity) {}
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  std::vector<int> order;
  EventId a = q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  q.cancel(a);
  while (q.run_one() != kTimeInfinity) {}
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  EventId a = q.schedule(1.0, [] {});
  q.cancel(a);
  q.cancel(a);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  EventId a = q.schedule(1.0, [] {});
  q.schedule(5.0, [] {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);
}

// Regression (ISSUE 5): cancelling an id that already fired must be a no-op.
// The old implementation kept no record of fired ids, so a late cancel
// decremented the live count again and empty()/size() lied — a simulation
// could terminate with events still pending.
TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  int fired = 0;
  EventId a = q.schedule(1.0, [&] { ++fired; });
  q.schedule(2.0, [&] { ++fired; });
  EXPECT_DOUBLE_EQ(q.run_one(), 1.0);  // fires a
  q.cancel(a);                         // stale id: must not touch the queue
  EXPECT_EQ(q.size(), 1u);
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.run_one(), 2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

// A stale id whose slot has been reused by a newer event must not cancel the
// newer event (generation tags, not bare slot indices).
TEST(EventQueue, StaleCancelDoesNotHitReusedSlot) {
  EventQueue q;
  int fired = 0;
  EventId a = q.schedule(1.0, [&] { ++fired; });
  q.run_one();  // a's slot returns to the free-list
  EventId b = q.schedule(2.0, [&] { ++fired; });
  EXPECT_NE(a, b);
  q.cancel(a);  // must not cancel b even though the slot matches
  EXPECT_EQ(q.size(), 1u);
  q.run_one();
  EXPECT_EQ(fired, 2);
}

// Regression (ISSUE 5): cancellation must destroy the closure's captured
// state eagerly, not retain it until the entry would have drifted to the
// heap top — under heavy churn lazy retention is unbounded memory.
TEST(EventQueue, CancelReleasesCapturedStateEagerly) {
  EventQueue q;
  auto shared = std::make_shared<int>(42);
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i)
    ids.push_back(q.schedule(1000.0 + i, [shared] { (void)*shared; }));
  q.schedule(1.0, [] {});  // keeps the queue busy below the cancelled block
  EXPECT_EQ(shared.use_count(), 65);
  for (EventId id : ids) q.cancel(id);
  // All 64 captured copies destroyed immediately; only ours remains.
  EXPECT_EQ(shared.use_count(), 1);
  EXPECT_EQ(q.size(), 1u);
}

// Steady-state slab behaviour: a fire/reschedule cycle reuses freed slots
// instead of growing the slab (the allocation-free hot path's foundation).
TEST(EventQueue, SlabStopsGrowingOnceWarm) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.schedule(1.0 + i, [] {});
  const std::size_t warm = q.slab_slots();
  for (int i = 0; i < 1000; ++i) {
    q.run_one();
    q.schedule(100.0 + i, [] {});
  }
  EXPECT_EQ(q.slab_slots(), warm);
}

// Typed events dispatch to their EventTarget with the payload intact.
struct RecordingTarget : EventTarget {
  std::vector<Event> seen;
  std::vector<Time> times;
  void on_event(Event& ev, Time now) override {
    seen.push_back(ev);
    times.push_back(now);
  }
};

TEST(EventQueue, TypedEventsCarryPayloadToTarget) {
  EventQueue q;
  RecordingTarget t;
  Packet p;
  p.flow = 3;
  p.seq = 17;
  p.length_bits = 1000.0;
  q.schedule_packet(1.0, EventOp::kArrival, &t, p);
  q.schedule_tick(2.0, &t, 512.0);
  q.schedule_flow(3.0, EventOp::kChurnLeave, &t, /*flow=*/9);
  while (q.run_one() != kTimeInfinity) {}
  ASSERT_EQ(t.seen.size(), 3u);
  EXPECT_EQ(t.seen[0].op, EventOp::kArrival);
  EXPECT_EQ(t.seen[0].packet.flow, 3u);
  EXPECT_EQ(t.seen[0].packet.seq, 17u);
  EXPECT_EQ(t.seen[1].op, EventOp::kSourceTick);
  EXPECT_DOUBLE_EQ(t.seen[1].bits, 512.0);
  EXPECT_EQ(t.seen[2].op, EventOp::kChurnLeave);
  EXPECT_EQ(t.seen[2].flow, 9u);
  EXPECT_EQ(t.times, (std::vector<Time>{1.0, 2.0, 3.0}));
}

TEST(EventQueue, TypedEventsCancelLikeCallbacks) {
  EventQueue q;
  RecordingTarget t;
  Packet p;
  p.flow = 1;
  EventId a = q.schedule_packet(1.0, EventOp::kArrival, &t, p);
  q.schedule_tick(2.0, &t, 1.0);
  q.cancel(a);
  while (q.run_one() != kTimeInfinity) {}
  ASSERT_EQ(t.seen.size(), 1u);
  EXPECT_EQ(t.seen[0].op, EventOp::kSourceTick);
}

// Randomized schedule/cancel/pop fuzz against a naive reference queue: the
// slab + indexed-heap implementation must agree with an O(n) linear scan on
// fire order, sizes, and which cancels take effect.
TEST(EventQueue, FuzzAgainstNaiveReference) {
  struct RefEvent {
    Time when;
    uint64_t seq;    // schedule order, breaks time ties
    int tag;
    bool alive;
  };
  std::mt19937_64 rng(20260806);
  std::uniform_real_distribution<double> when_dist(0.0, 100.0);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    std::vector<RefEvent> ref;
    std::vector<std::pair<EventId, std::size_t>> live;  // queue id -> ref idx
    std::vector<int> got, want;
    uint64_t seq = 0;
    int next_tag = 0;
    for (int step = 0; step < 2000; ++step) {
      const uint64_t r = rng() % 100;
      if (r < 50 || live.empty()) {
        const Time t = when_dist(rng);
        const int tag = next_tag++;
        EventId id = q.schedule(t, [tag, &got] { got.push_back(tag); });
        ref.push_back(RefEvent{t, seq++, tag, true});
        live.emplace_back(id, ref.size() - 1);
      } else if (r < 70) {
        // Cancel a random live event (sometimes one cancelled before —
        // the double-cancel must be a no-op).
        const std::size_t pick = rng() % live.size();
        q.cancel(live[pick].first);
        ref[live[pick].second].alive = false;
        if (rng() % 4 == 0) q.cancel(live[pick].first);
        live.erase(live.begin() + pick);
      } else {
        // Pop: the reference fires the earliest (when, seq) live event.
        const Time fired_at = q.run_one();
        std::size_t best = ref.size();
        for (std::size_t i = 0; i < ref.size(); ++i)
          if (ref[i].alive && (best == ref.size() ||
                               ref[i].when < ref[best].when ||
                               (ref[i].when == ref[best].when &&
                                ref[i].seq < ref[best].seq)))
            best = i;
        if (best == ref.size()) {
          EXPECT_EQ(fired_at, kTimeInfinity);
        } else {
          EXPECT_DOUBLE_EQ(fired_at, ref[best].when);
          want.push_back(ref[best].tag);
          ref[best].alive = false;
          live.erase(std::find_if(live.begin(), live.end(),
                                  [&](auto& e) { return e.second == best; }));
        }
      }
      const std::size_t ref_live =
          static_cast<std::size_t>(std::count_if(
              ref.begin(), ref.end(), [](auto& e) { return e.alive; }));
      ASSERT_EQ(q.size(), ref_live) << "step " << step;
    }
    EXPECT_EQ(got, want);
  }
}

// A target whose one outstanding "transmission" is either an armed slot
// (the servers' path) or a typed kServiceComplete heap event (the old one).
// Every firing is logged; handlers re-arm and schedule heap ticks from one
// shared rng, so both modes make the same calls iff they fire in one order.
struct SlotNode final : EventTarget {
  Simulator* sim = nullptr;
  bool use_slot = true;
  SlotId slot = 0;
  int id = 0;
  bool busy = false;
  std::mt19937_64* rng = nullptr;
  std::vector<SlotNode>* nodes = nullptr;
  std::vector<std::pair<int, Time>>* log = nullptr;
  int* budget = nullptr;

  // Coarse grid: many firings share a time, so order rests on seq alone.
  Time later(Time now) { return now + 0.5 * static_cast<double>((*rng)() % 3); }
  void start(Time when) {
    busy = true;
    if (use_slot) sim->arm(slot, when);
    else sim->at_packet(when, EventOp::kServiceComplete, this, Packet{});
  }
  void on_event(Event& ev, Time now) override {
    const bool done = ev.op == EventOp::kSlotFired ||
                      ev.op == EventOp::kServiceComplete;
    log->emplace_back(done ? id : -id - 1, now);
    if (done) busy = false;
    if (--*budget <= 0) return;
    if (!busy && (*rng)() % 4 != 0) start(later(now));
    const uint64_t r = (*rng)();
    if (done || r % 2 == 0) {
      SlotNode& other = (*nodes)[(r / 2) % nodes->size()];
      sim->at_tick(later(now), &other, 0.0);
    }
  }
};

struct SlotRun {
  std::vector<std::pair<int, Time>> log;
  uint64_t scheduled = 0, executed = 0;
  std::size_t max_pending = 0;
};

SlotRun run_slot_nodes(bool use_slot, uint64_t seed) {
  Simulator sim;
  std::mt19937_64 rng(seed);
  std::vector<SlotNode> nodes(5);
  SlotRun out;
  int budget = 4000;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    SlotNode& n = nodes[i];
    n.sim = &sim;
    n.use_slot = use_slot;
    n.slot = sim.add_slot(&n);
    n.id = static_cast<int>(i);
    n.rng = &rng;
    n.nodes = &nodes;
    n.log = &out.log;
    n.budget = &budget;
  }
  for (int k = 0; k < 12; ++k) {
    SlotNode& n = nodes[rng() % nodes.size()];
    if (!n.busy && rng() % 2 == 0) n.start(n.later(0.0));
    else sim.at_tick(n.later(0.0), &n, 0.0);
  }
  sim.run();
  out.scheduled = sim.events_scheduled();
  out.executed = sim.events_executed();
  out.max_pending = sim.max_pending_events();
  EXPECT_EQ(sim.pending_events(), 0u);
  return out;
}

TEST(EventQueue, SlotsFireInTheSameOrderAsHeapEvents) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const SlotRun slots = run_slot_nodes(/*use_slot=*/true, seed);
    const SlotRun heap = run_slot_nodes(/*use_slot=*/false, seed);
    ASSERT_GT(slots.log.size(), 2000u) << "seed " << seed;
    EXPECT_EQ(slots.log, heap.log) << "seed " << seed;
    EXPECT_EQ(slots.scheduled, heap.scheduled) << "seed " << seed;
    EXPECT_EQ(slots.executed, heap.executed) << "seed " << seed;
    EXPECT_EQ(slots.max_pending, heap.max_pending) << "seed " << seed;
  }
}

TEST(EventQueue, SlotCanBeRearmedFromItsOwnHandler) {
  struct Rearm final : EventTarget {
    EventQueue* q = nullptr;
    SlotId slot = 0;
    std::vector<Time> times;
    std::vector<bool> armed_in_handler;
    void on_event(Event& ev, Time now) override {
      EXPECT_EQ(ev.op, EventOp::kSlotFired);
      EXPECT_EQ(ev.aux, slot);
      times.push_back(now);
      armed_in_handler.push_back(q->armed(slot));
      if (times.size() < 3) q->arm(slot, now + 1.0);
    }
  } t;
  EventQueue q;
  t.q = &q;
  q.add_slot(nullptr);  // a second slot, never armed
  t.slot = q.add_slot(&t);
  q.arm(t.slot, 1.0);
  EXPECT_TRUE(q.armed(t.slot));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (q.run_one() != kTimeInfinity) {}
  EXPECT_EQ(t.times, (std::vector<Time>{1.0, 2.0, 3.0}));
  EXPECT_EQ(t.armed_in_handler, (std::vector<bool>{false, false, false}));
  EXPECT_FALSE(q.armed(t.slot));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ArmingAnArmedOrUnknownSlotThrows) {
  struct Nop final : EventTarget {
    void on_event(Event&, Time) override {}
  } t;
  EventQueue q;
  const SlotId s = q.add_slot(&t);
  q.arm(s, 1.0);
  EXPECT_THROW(q.arm(s, 2.0), std::logic_error);
  EXPECT_THROW(q.arm(s + 1, 2.0), std::logic_error);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.run_one(), 1.0);
  q.arm(s, 2.0);  // free again once fired
  EXPECT_TRUE(q.armed(s));
}

TEST(Simulator, CountersIncludeSlotEvents) {
  struct Nop final : EventTarget {
    void on_event(Event&, Time) override {}
  } t;
  Simulator sim;
  const SlotId s = sim.add_slot(&t);
  sim.arm(s, 2.0);
  sim.at_tick(1.0, &t, 0.0);
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.events_scheduled(), 2u);
  EXPECT_EQ(sim.max_pending_events(), 2u);
  sim.run_until(1.5);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(sim.events_executed(), 1u);
  EXPECT_THROW(sim.arm(s, 3.0), std::logic_error);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_THROW(sim.arm(s, 1.0), std::invalid_argument);  // in the past
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Time seen = -1.0;
  sim.at(1.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 1.5);
  EXPECT_DOUBLE_EQ(sim.now(), 1.5);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(2.0, [&] { ++fired; });
  sim.at(3.0, [&] { ++fired; });
  sim.run_until(2.0);
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  sim.run_until(10.0);
  EXPECT_EQ(fired, 3);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<Time> times;
  std::function<void()> chain = [&] {
    times.push_back(sim.now());
    if (times.size() < 4) sim.after(1.0, chain);
  };
  sim.at(0.5, chain);
  sim.run();
  EXPECT_EQ(times, (std::vector<Time>{0.5, 1.5, 2.5, 3.5}));
}

TEST(Simulator, PastEventThrows) {
  Simulator sim;
  sim.at(1.0, [] {});
  sim.run();
  EXPECT_THROW(sim.at(0.5, [] {}), std::invalid_argument);
}

}  // namespace
}  // namespace sfq::sim
