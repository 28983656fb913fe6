// The discrete-event engine: a virtual clock over one or more event queues.
//
// The GDN paper deployed on real Internet hosts; this repository reproduces the
// system on a deterministic simulator so that "where does traffic flow" and "how far
// do messages travel" — the quantities behind every claim in the paper — are exactly
// measurable. All services (GLS directory nodes, DNS servers, object servers, HTTPDs)
// run as callbacks driven by one Simulator instance.
//
// The world is partitioned into shards, each owning a private event queue, a
// private virtual clock and the state of the nodes assigned to it. A
// default-constructed Simulator has one shard: one queue whose head defines
// "now", run on the calling thread with no real concurrency. That is the engine
// nearly every test, bench and GdnWorld runs on. Planet-scale worlds construct
// it with (shards, lookahead) and home each continent's nodes on a shard. Shards
// advance in lockstep windows
//
//   [T0, T0 + lookahead), cut short at the run deadline and the next barrier,
//
// where T0 is the earliest pending event across all shards and `lookahead` is
// the minimum cross-shard link latency: no event executed inside the window can
// schedule work on another shard earlier than the window's end, so every shard
// can run its slice of the window without seeing the others. Windows with more
// than one active shard run on a pool of per-shard worker threads; windows
// where only one shard has work run inline on the calling thread. One shard is
// the degenerate case: its lookahead is unbounded, so a run is a single window,
// and it never enters a parallel region.
//
// Events are cancellable: ScheduleAt/ScheduleAfter return an EventId that Cancel()
// erases from the queue. A cancelled event neither runs nor advances the virtual
// clock — this is what lets the RPC layer drop a call's deadline event the moment
// its response arrives, so draining the queue costs the round-trip time rather than
// the full timeout. Tombstones are bounded (see EventHeap).
//
// Determinism contract (what makes pinned-seed byte-identical replay hold for
// any shard count):
//   - Event ids are (seq << shard_bits) | shard, with one seq counter per
//     shard and just enough shard bits for the shard count, so same-time
//     events on a shard run in the order they were scheduled there. On one
//     shard there are no shard bits: the ids are 1, 2, 3, ... in scheduling
//     order.
//   - Cross-shard schedules buffer in the source shard's outbox during a
//     window. At the window boundary every outbox is merged in canonical
//     (time, source shard, source seq) order and the events get fresh
//     target-shard ids in that order — so target-side ids, and therefore all
//     same-time tie-breaks, are independent of thread timing.
//   - An outbox event that targets a time the destination shard has already
//     passed is a lookahead violation: it is clamped to the destination's
//     clock and counted (lookahead_violations()), never dropped.
//   - Shared mutable state (the network's fault tables) must only change with
//     all shards parked. ScheduleBarrier runs a task with every shard quiescent
//     at the first window boundary at-or-after its time, and InParallelRegion()
//     lets mutators assert the discipline. On one shard a barrier is an
//     ordinary event, ordered among same-time events by scheduling order.

#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/endpoint.h"
#include "src/sim/event_queue.h"

namespace globe::sim {

class Simulator : public Clock {
 public:
  // Handle to a scheduled event; kNoEvent is never a live event. Events are
  // Clock timers — EventId is the historical name for TimerId.
  using EventId = Clock::TimerId;
  static constexpr EventId kNoEvent = Clock::kNoTimer;

  // One shard: the sequential engine.
  Simulator() : Simulator(1, 0) {}
  // `lookahead_us` must be at most the minimum latency of any message that can
  // cross shards. With one shard there is nothing to cross and it is ignored.
  Simulator(size_t shard_count, SimTime lookahead_us);
  ~Simulator() override;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // The executing shard's clock inside an event; otherwise the latest event
  // time completed (or RunUntil deadline reached).
  SimTime Now() const override {
    return tls_engine_ == this ? shards_[tls_shard_].now : now_;
  }

  // Schedules fn at absolute time t (>= Now) on the executing shard, or on
  // shard 0 from idle context.
  EventId ScheduleAt(SimTime t, std::function<void()> fn);
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) override {
    return ScheduleAt(Now() + delay, std::move(fn));
  }

  // Erases a pending event: it will neither run nor advance the clock. Returns
  // false if the event already ran, was already cancelled, or never existed.
  bool Cancel(EventId id);
  bool CancelTimer(TimerId id) override { return Cancel(id); }

  // Runs a single live event; one-shard engines only. Returns false if no live
  // events remain.
  bool Step();

  // Runs until the queue is empty.
  void Run();

  // Runs until the queue is empty or the clock would pass `deadline`.
  void RunUntil(SimTime deadline);

  size_t pending_events() const;
  uint64_t executed_events() const;

  // ---- Shards. Node assignment is fixed before the node's services start.
  void AssignNode(NodeId node, size_t shard);
  size_t ShardOfNode(NodeId node) const {
    return node < node_shard_.size() ? node_shard_[node] : 0;
  }
  size_t shard_count() const { return shards_.size(); }
  // The shard whose events the calling thread is executing; 0 when idle.
  size_t current_shard() const { return tls_engine_ == this ? tls_shard_ : 0; }

  // True while shard threads may be running events concurrently. State shared
  // across shards must only change when this is false (idle, or inside a
  // barrier task). Never true on one shard.
  bool InParallelRegion() const { return in_parallel_.load(std::memory_order_relaxed); }

  // Schedules fn on the shard owning `node`'s state. Network uses it for
  // deliveries, so a message handler always runs on the receiving node's shard.
  EventId ScheduleAtForNode(NodeId node, SimTime t, std::function<void()> fn);
  EventId ScheduleAfterForNode(NodeId node, SimTime delay, std::function<void()> fn) {
    return ScheduleAtForNode(node, Now() + delay, std::move(fn));
  }

  // Schedules fn to run with every shard quiescent, at the first window
  // boundary at-or-after t (fault injection, subnode splitting, global
  // controller ticks). Not cancellable on more than one shard.
  EventId ScheduleBarrier(SimTime t, std::function<void()> fn);

  SimTime lookahead() const { return lookahead_; }
  uint64_t lookahead_violations() const { return lookahead_violations_; }
  uint64_t windows_run() const { return windows_run_; }
  uint64_t parallel_windows() const { return parallel_windows_; }

 private:
  // A cross-shard schedule buffered until the next window boundary. The
  // provisional id lives in the source shard's seq space and dies at the
  // merge, where the event gets a fresh id on the target shard.
  struct Outgoing {
    SimTime time;
    uint64_t provisional_id;
    size_t target;
    std::function<void()> fn;
  };

  struct Shard {
    EventHeap heap;
    SimTime now = 0;
    uint64_t next_seq = 1;
    uint64_t executed = 0;
    std::vector<Outgoing> outbox;
    // Cross-shard cancels issued by THIS shard during a window; applied in
    // canonical order at the boundary.
    std::vector<uint64_t> deferred_cancels;
  };

  // Marks the calling thread as running one shard's events (RAII).
  class ShardContext;

  EventId MakeId(size_t index) {
    return (shards_[index].next_seq++ << shard_bits_) | index;
  }
  size_t ShardOfId(EventId id) const { return id & ((uint64_t{1} << shard_bits_) - 1); }

  // Pushes onto shard `index`'s queue; every shard must be parked, or
  // `index` must be the executing shard.
  EventId Push(size_t index, SimTime t, std::function<void()>&& fn);
  // Pops shard's next live event (Peek() must have returned non-null) and runs
  // it; the caller has set the shard context.
  void RunNext(Shard& shard);
  // Runs all of shard `index`'s events with time <= t_last on the calling
  // thread.
  void RunShardWindow(size_t index, SimTime t_last);
  // Applies deferred cancels and merges every outbox, in canonical order.
  void MergeBoundary();
  // The coordinator loop shared by Run and RunUntil.
  void RunWindows(SimTime deadline);
  void DispatchWindow(const std::vector<size_t>& active, SimTime t_last);
  void StartWorkers();
  void WorkerMain(size_t index);

  // Which shard of which engine the calling thread is executing events for.
  // Set only while a shard runs its events; everything else is idle context.
  static constinit inline thread_local const Simulator* tls_engine_ = nullptr;
  static constinit inline thread_local size_t tls_shard_ = 0;

  SimTime lookahead_;
  int shard_bits_;
  std::vector<Shard> shards_;
  std::vector<uint8_t> node_shard_;

  // Barrier tasks of a multi-shard engine, ordered by (time, insertion seq).
  std::map<std::pair<SimTime, uint64_t>, std::function<void()>> barriers_;
  uint64_t next_barrier_seq_ = 1;
  uint64_t barriers_executed_ = 0;

  SimTime now_ = 0;  // idle-context clock
  uint64_t lookahead_violations_ = 0;
  uint64_t windows_run_ = 0;
  uint64_t parallel_windows_ = 0;

  // Worker pool (started lazily on the first multi-shard window), declared
  // after everything its threads use.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  size_t active_remaining_ = 0;
  SimTime window_last_ = 0;
  std::vector<uint8_t> shard_active_;
  bool shutdown_ = false;
  std::atomic<bool> in_parallel_{false};
  std::vector<std::thread> workers_;
};

// Other names for the one engine, still used by code outside src/.
using EventEngine = Simulator;
using ShardedSimulator = Simulator;

}  // namespace globe::sim

#endif  // SRC_SIM_SIMULATOR_H_
