#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>

namespace globe::sim {
namespace {

constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
// Ids of multi-shard barrier tasks; event ids never reach this bit.
constexpr uint64_t kBarrierBit = 1ULL << 63;

}  // namespace

// Marks the calling thread as executing `shard`'s events for its lifetime,
// restoring the previous context after (a run may nest inside an event).
class Simulator::ShardContext {
 public:
  ShardContext(const Simulator* engine, size_t shard)
      : engine_(tls_engine_), shard_(tls_shard_) {
    tls_engine_ = engine;
    tls_shard_ = shard;
  }
  ~ShardContext() {
    tls_engine_ = engine_;
    tls_shard_ = shard_;
  }

 private:
  const Simulator* engine_;
  size_t shard_;
};

Simulator::Simulator(size_t shard_count, SimTime lookahead_us)
    : lookahead_(shard_count == 1 ? kMaxTime : std::max<SimTime>(lookahead_us, 1)),
      shard_bits_(std::bit_width(shard_count - 1)),
      shards_(shard_count),
      shard_active_(shard_count, 0) {
  assert(shard_count >= 1 && shard_count <= 256);
}

Simulator::~Simulator() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }
}

void Simulator::AssignNode(NodeId node, size_t shard) {
  assert(shard < shards_.size());
  assert(!InParallelRegion());
  if (node >= node_shard_.size()) {
    node_shard_.resize(node + 1, 0);
  }
  node_shard_[node] = static_cast<uint8_t>(shard);
}

Simulator::EventId Simulator::Push(size_t index, SimTime t, std::function<void()>&& fn) {
  EventId id = MakeId(index);
  shards_[index].heap.Push(t, id, std::move(fn));
  return id;
}

Simulator::EventId Simulator::ScheduleAt(SimTime t, std::function<void()> fn) {
  assert(t >= Now() && "cannot schedule into the past");
  return Push(current_shard(), t, std::move(fn));
}

Simulator::EventId Simulator::ScheduleAtForNode(NodeId node, SimTime t,
                                                std::function<void()> fn) {
  size_t target = ShardOfNode(node);
  if (!InParallelRegion()) {
    // Idle or barrier context: every shard is parked, push directly.
    assert(t >= std::max(Now(), shards_[target].now) && "cannot schedule into the past");
    return Push(target, t, std::move(fn));
  }
  assert(tls_engine_ == this);
  if (target == tls_shard_) {
    return ScheduleAt(t, std::move(fn));
  }
  // Cross-shard while shards run: buffer in the source shard's outbox; the
  // event is merged — and gets its real target-shard id — at the boundary.
  EventId provisional = MakeId(tls_shard_);
  shards_[tls_shard_].outbox.push_back(Outgoing{t, provisional, target, std::move(fn)});
  return provisional;
}

Simulator::EventId Simulator::ScheduleBarrier(SimTime t, std::function<void()> fn) {
  if (shards_.size() == 1) {
    return ScheduleAt(t, std::move(fn));
  }
  assert(!InParallelRegion() &&
         "barrier tasks must be scheduled from idle or barrier context");
  uint64_t seq = next_barrier_seq_++;
  barriers_.emplace(std::make_pair(t, seq), std::move(fn));
  return kBarrierBit | seq;
}

bool Simulator::Cancel(EventId id) {
  size_t index = ShardOfId(id);
  if ((id & kBarrierBit) != 0 || index >= shards_.size()) {
    return false;  // barrier ids and garbage are not cancellable
  }
  Shard& shard = shards_[index];
  if (!InParallelRegion()) {
    return shard.heap.Cancel(id);
  }
  assert(tls_engine_ == this);
  if (index == tls_shard_) {
    if (shard.heap.Cancel(id)) {
      return true;
    }
    // The id may still be a provisional outbox entry from this window.
    auto& outbox = shard.outbox;
    for (auto it = outbox.begin(); it != outbox.end(); ++it) {
      if (it->provisional_id == id) {
        outbox.erase(it);
        return true;
      }
    }
    return false;
  }
  // Cross-shard cancel while the target shard may be running: defer to the
  // boundary, where it is applied in canonical order. Optimistically reported
  // as cancelled; in practice cancels are shard-local (RPC deadline timers
  // live on the caller's shard).
  shards_[tls_shard_].deferred_cancels.push_back(id);
  return true;
}

bool Simulator::Step() {
  assert(shards_.size() == 1 && "Step drives one-shard engines only");
  Shard& shard = shards_[0];
  const TimedEvent* next = shard.heap.Peek();
  if (next == nullptr) {
    return false;
  }
  {
    ShardContext context(this, 0);
    RunNext(shard);
  }
  now_ = std::max(now_, shard.now);
  return true;
}

void Simulator::RunNext(Shard& shard) {
  TimedEvent event = shard.heap.PopTop();
  shard.now = event.time;
  ++shard.executed;
  event.fn();
}

void Simulator::RunShardWindow(size_t index, SimTime t_last) {
  ShardContext context(this, index);
  Shard& shard = shards_[index];
  for (const TimedEvent* next = shard.heap.Peek(); next != nullptr && next->time <= t_last;
       next = shard.heap.Peek()) {
    RunNext(shard);
  }
}

void Simulator::MergeBoundary() {
  // Deferred cross-shard cancels first, in canonical (ascending id) order.
  std::vector<uint64_t> cancels;
  for (Shard& shard : shards_) {
    cancels.insert(cancels.end(), shard.deferred_cancels.begin(),
                   shard.deferred_cancels.end());
    shard.deferred_cancels.clear();
  }
  if (!cancels.empty()) {
    std::sort(cancels.begin(), cancels.end());
    for (uint64_t id : cancels) {
      shards_[ShardOfId(id)].heap.Cancel(id);
    }
  }

  // Merge every outbox in canonical (time, source shard, source seq) order,
  // assigning fresh target-shard ids in that order so tie-breaks downstream
  // are independent of which thread filled which outbox first.
  std::vector<Outgoing> all;
  for (Shard& shard : shards_) {
    all.insert(all.end(), std::make_move_iterator(shard.outbox.begin()),
               std::make_move_iterator(shard.outbox.end()));
    shard.outbox.clear();
  }
  if (all.empty()) {
    return;
  }
  std::sort(all.begin(), all.end(), [this](const Outgoing& a, const Outgoing& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    size_t a_shard = ShardOfId(a.provisional_id);
    size_t b_shard = ShardOfId(b.provisional_id);
    if (a_shard != b_shard) {
      return a_shard < b_shard;
    }
    return a.provisional_id < b.provisional_id;
  });
  for (Outgoing& out : all) {
    SimTime t = out.time;
    if (t < shards_[out.target].now) {
      // The source scheduled closer than the engine's lookahead: the target
      // already advanced past t. Clamp instead of travelling back in time.
      ++lookahead_violations_;
      t = shards_[out.target].now;
    }
    Push(out.target, t, std::move(out.fn));
  }
}

void Simulator::RunWindows(SimTime deadline) {
  for (;;) {
    MergeBoundary();

    bool have_event = false;
    SimTime t0 = kMaxTime;
    for (Shard& shard : shards_) {
      const TimedEvent* next = shard.heap.Peek();
      if (next != nullptr && next->time <= t0) {
        t0 = next->time;
        have_event = true;
      }
    }
    if (!barriers_.empty() && (!have_event || barriers_.begin()->first.first <= t0)) {
      // A barrier task runs before any event at-or-after its time, with every
      // shard parked. Run one task, then recompute (it may schedule more).
      auto it = barriers_.begin();
      if (it->first.first > deadline) {
        break;
      }
      std::function<void()> fn = std::move(it->second);
      now_ = std::max(now_, it->first.first);
      barriers_.erase(it);
      ++barriers_executed_;
      fn();
      continue;
    }
    if (!have_event || t0 > deadline) {
      break;
    }

    // The window's last time: one lookahead on, at most the deadline, and
    // short of the next barrier so it sees a quiescent world.
    SimTime t_last = lookahead_ >= kMaxTime - t0 ? kMaxTime : t0 + lookahead_ - 1;
    t_last = std::min(t_last, deadline);
    if (!barriers_.empty()) {
      t_last = std::min(t_last, barriers_.begin()->first.first - 1);
    }

    std::vector<size_t> active;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const TimedEvent* next = shards_[i].heap.Peek();
      if (next != nullptr && next->time <= t_last) {
        active.push_back(i);
      }
    }
    ++windows_run_;
    if (active.size() == 1) {
      // Only one shard has work this window: run it inline, no thread
      // hand-off. With several shards it still counts as a parallel region,
      // so cross-shard sends buffer exactly as in a dispatched window.
      in_parallel_.store(shards_.size() > 1, std::memory_order_relaxed);
      RunShardWindow(active.front(), t_last);
      in_parallel_.store(false, std::memory_order_relaxed);
    } else {
      ++parallel_windows_;
      DispatchWindow(active, t_last);
    }
    for (size_t i : active) {
      now_ = std::max(now_, shards_[i].now);
    }
  }
}

void Simulator::Run() { RunWindows(kMaxTime); }

void Simulator::RunUntil(SimTime deadline) {
  RunWindows(deadline);
  now_ = std::max(now_, deadline);
}

void Simulator::DispatchWindow(const std::vector<size_t>& active, SimTime t_last) {
  StartWorkers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::fill(shard_active_.begin(), shard_active_.end(), 0);
    for (size_t i : active) {
      shard_active_[i] = 1;
    }
    window_last_ = t_last;
    active_remaining_ = active.size();
    in_parallel_.store(true, std::memory_order_relaxed);
    ++generation_;
  }
  cv_work_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [this] { return active_remaining_ == 0; });
    in_parallel_.store(false, std::memory_order_relaxed);
  }
}

void Simulator::StartWorkers() {
  if (!workers_.empty()) {
    return;
  }
  workers_.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    workers_.emplace_back([this, i] { WorkerMain(i); });
  }
}

void Simulator::WorkerMain(size_t index) {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t seen = 0;
  for (;;) {
    cv_work_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
    if (shutdown_) {
      return;
    }
    seen = generation_;
    if (!shard_active_[index]) {
      continue;
    }
    SimTime t_last = window_last_;
    lock.unlock();
    RunShardWindow(index, t_last);
    lock.lock();
    if (--active_remaining_ == 0) {
      cv_done_.notify_one();
    }
  }
}

size_t Simulator::pending_events() const {
  size_t total = barriers_.size();
  for (const Shard& shard : shards_) {
    total += shard.heap.pending() + shard.outbox.size();
  }
  return total;
}

uint64_t Simulator::executed_events() const {
  uint64_t total = barriers_executed_;
  for (const Shard& shard : shards_) {
    total += shard.executed;
  }
  return total;
}

}  // namespace globe::sim
