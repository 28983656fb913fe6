// A cancellable min-heap of timed events: one per sim::Simulator shard.
//
// A (time, id)-ordered heap whose entries can be cancelled in O(1) and whose
// tombstones are bounded. Cancellation marks the id; the physical entry is
// dropped lazily when it surfaces, and Push/Cancel compact the heap outright
// once tombstones outnumber live events — so a week-long simulated run that
// schedules and cancels millions of RPC deadline timers holds memory
// proportional to the *live* event count, not the historical cancel count.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/sim/clock.h"

namespace globe::sim {

struct TimedEvent {
  SimTime time;
  uint64_t id;  // also the tie-breaker for stable ordering
  std::function<void()> fn;
};

class EventHeap {
 public:
  void Push(SimTime t, uint64_t id, std::function<void()> fn) {
    heap_.push_back(TimedEvent{t, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), After);
    pending_.insert(id);
  }

  // Marks a pending event cancelled: it will never run. Returns false if the
  // event already ran, was already cancelled, or never existed.
  bool Cancel(uint64_t id) {
    if (pending_.erase(id) == 0) {
      return false;
    }
    cancelled_.insert(id);
    // Tombstone bound: once cancelled entries exceed half of what is
    // physically queued, rebuild the heap from the live events only.
    if (cancelled_.size() > heap_.size() / 2) {
      Compact();
    }
    return true;
  }

  // The next live event, dropping any cancelled prefix; nullptr when empty.
  const TimedEvent* Peek() {
    DropCancelledPrefix();
    return heap_.empty() ? nullptr : &heap_.front();
  }

  // Pops the next live event. Peek() must have returned non-null.
  TimedEvent PopTop() {
    std::pop_heap(heap_.begin(), heap_.end(), After);
    TimedEvent event = std::move(heap_.back());
    heap_.pop_back();
    pending_.erase(event.id);
    return event;
  }

  size_t pending() const { return pending_.size(); }
  bool IsPending(uint64_t id) const { return pending_.count(id) > 0; }

  // Drains every live event (heap order not guaranteed); used by engines that
  // re-distribute events, never by the run loop.
  std::vector<TimedEvent> TakeAll() {
    std::vector<TimedEvent> live;
    live.reserve(pending_.size());
    for (TimedEvent& event : heap_) {
      if (cancelled_.erase(event.id) == 0) {
        live.push_back(std::move(event));
      }
    }
    heap_.clear();
    pending_.clear();
    cancelled_.clear();
    return live;
  }

 private:
  // Heap comparator: std:: heap algorithms build a max-heap, so "after" orders
  // the earliest (time, id) to the front.
  static bool After(const TimedEvent& a, const TimedEvent& b) {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.id > b.id;
  }

  void DropCancelledPrefix() {
    while (!heap_.empty() && cancelled_.count(heap_.front().id) > 0) {
      std::pop_heap(heap_.begin(), heap_.end(), After);
      cancelled_.erase(heap_.back().id);
      heap_.pop_back();
    }
  }

  void Compact() {
    std::erase_if(heap_, [this](const TimedEvent& event) {
      return cancelled_.count(event.id) > 0;
    });
    cancelled_.clear();
    std::make_heap(heap_.begin(), heap_.end(), After);
  }

  std::vector<TimedEvent> heap_;
  std::unordered_set<uint64_t> pending_;    // scheduled, not yet run or cancelled
  std::unordered_set<uint64_t> cancelled_;  // cancelled but still physically queued
};

}  // namespace globe::sim

#endif  // SRC_SIM_EVENT_QUEUE_H_
