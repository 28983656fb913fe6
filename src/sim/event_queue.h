// A cancellable min-heap of timed events: one per sim::Simulator shard.
//
// A (time, id)-ordered heap whose entries can be cancelled in O(1) and whose
// tombstones are bounded. Cancellation marks the id dead; the physical entry
// is dropped lazily when it surfaces, and Cancel compacts the heap outright
// once tombstones outnumber live events — so a week-long simulated run that
// schedules and cancels millions of RPC deadline timers holds memory
// proportional to the *live* event count, not the historical cancel count.
//
// Which ids are live is one bit per id, not a hash node per event: the ids
// pushed to one heap only increase (the engine numbers a shard's events in
// scheduling order), so a bitmap over the ids from the oldest live event to
// the newest answers Cancel, IsPending and pending(). Words drop off its front
// as the oldest ids die, and it is a ring that grows by doubling, so a steady
// state pushes, runs and cancels without allocating. Its size is the id span
// of the live events: an event far in the future keeps one bit for every id
// pushed after it.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
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
  // `id` must exceed every id pushed before.
  void Push(SimTime t, uint64_t id, std::function<void()> fn) {
    assert(id >= next_id_ && "event ids pushed to one heap must increase");
    next_id_ = id + 1;
    heap_.push_back(TimedEvent{t, id, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), After);
    live_.Insert(id);
  }

  // Marks a pending event cancelled: it will never run. Returns false if the
  // event already ran, was already cancelled, or never existed.
  bool Cancel(uint64_t id) {
    if (!live_.Erase(id)) {
      return false;
    }
    ++cancelled_;
    // Tombstone bound: once cancelled entries exceed half of what is
    // physically queued, rebuild the heap from the live events only.
    if (cancelled_ > heap_.size() / 2) {
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
    live_.Erase(event.id);
    return event;
  }

  size_t pending() const { return live_.size(); }
  bool IsPending(uint64_t id) const { return live_.Contains(id); }

 private:
  // The live ids (see above), inserted in increasing order.
  class LiveIds {
   public:
    void Insert(uint64_t id) {
      uint64_t word = id / 64;
      if (used_ == 0) {
        first_word_ = word;
      }
      assert(word >= first_word_);
      // Slots past the words in use are zero: Grow's new slots start zero,
      // and a word leaves the front only once it is zero.
      size_t needed = word - first_word_ + 1;
      while (needed > words_.size()) {
        Grow();
      }
      used_ = needed;
      words_[Slot(word)] |= Bit(id);
      ++size_;
    }

    // Returns false if `id` was not live.
    bool Erase(uint64_t id) {
      if (!Contains(id)) {
        return false;
      }
      words_[Slot(id / 64)] &= ~Bit(id);
      --size_;
      while (used_ > 0 && words_[head_] == 0) {
        head_ = (head_ + 1) & (words_.size() - 1);
        ++first_word_;
        --used_;
      }
      return true;
    }

    bool Contains(uint64_t id) const {
      uint64_t word = id / 64;
      if (word < first_word_ || word - first_word_ >= used_) {
        return false;
      }
      return (words_[Slot(word)] & Bit(id)) != 0;
    }

    size_t size() const { return size_; }

   private:
    static uint64_t Bit(uint64_t id) { return uint64_t{1} << (id % 64); }

    // The ring slot of a word at or after first_word_.
    size_t Slot(uint64_t word) const {
      return (head_ + (word - first_word_)) & (words_.size() - 1);
    }

    // Doubles the ring, unrolling the words in use to its start.
    void Grow() {
      std::vector<uint64_t> grown(std::max<size_t>(8, 2 * words_.size()));
      for (size_t i = 0; i < used_; ++i) {
        grown[i] = words_[Slot(first_word_ + i)];
      }
      words_ = std::move(grown);
      head_ = 0;
    }

    std::vector<uint64_t> words_;  // a ring; its size is 0 or a power of two
    size_t head_ = 0;              // slot of first_word_
    size_t used_ = 0;              // words from first_word_ on; 0 when none live
    uint64_t first_word_ = 0;      // id / 64 of the oldest word kept
    size_t size_ = 0;              // live ids
  };

  // Heap comparator: std:: heap algorithms build a max-heap, so "after" orders
  // the earliest (time, id) to the front.
  static bool After(const TimedEvent& a, const TimedEvent& b) {
    if (a.time != b.time) {
      return a.time > b.time;
    }
    return a.id > b.id;
  }

  // A queued entry whose id is not live was cancelled.
  void DropCancelledPrefix() {
    while (!heap_.empty() && !live_.Contains(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), After);
      heap_.pop_back();
      --cancelled_;
    }
  }

  void Compact() {
    std::erase_if(heap_, [this](const TimedEvent& event) {
      return !live_.Contains(event.id);
    });
    cancelled_ = 0;
    std::make_heap(heap_.begin(), heap_.end(), After);
  }

  std::vector<TimedEvent> heap_;
  LiveIds live_;           // scheduled, not yet run or cancelled
  size_t cancelled_ = 0;   // cancelled but still physically queued
  uint64_t next_id_ = 0;   // the least id Push accepts
};

}  // namespace globe::sim

#endif  // SRC_SIM_EVENT_QUEUE_H_
