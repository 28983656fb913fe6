// Lazy caching with invalidation (paper §3.3: "another may use lazy replication").
//
// The master holds the authoritative state. Cache replicas fetch state on demand and
// serve reads from the local copy while it is valid; on every write the master sends
// invalidations, and caches re-fetch lazily on the next read. Ideal for read-mostly
// objects whose state is large relative to the read traffic — the situation the GDN's
// popular-but-rarely-updated software packages are in.
//
// Both roles are dso::Replica: the serving path, the master's write path and the
// cache's leaving on Shutdown are the shared core. Cache tracking and the
// invalidation fan-out ride on dso::ReplicaGroup; invalidations are epoch-stamped
// like every other group push. What is cache/invalidate's own: the fan-out carries
// only a version, the master acks after the invalidation round whatever the caches
// answer and keeps unreachable caches, and a cache joins without state and fetches
// it lazily. Caches hold the terminal kCache role — they are never electable (a
// cache may not even hold valid state), so this protocol has no master fail-over.
//
// Peer methods (beyond the dso.* methods every replica answers):
//   ci.register   : endpoint -> version, epoch  (cache joins; no state transferred)
//   ci.unregister : endpoint -> empty
//   ci.fetch      : empty -> VersionedState     (cache -> master, on demand)
//   ci.invalidate : version, epoch -> PushAck   (master -> caches)

#ifndef SRC_DSO_CACHE_INVAL_H_
#define SRC_DSO_CACHE_INVAL_H_

#include <memory>

#include "src/dso/replica.h"

namespace globe::dso {

class CacheInvalMaster : public Replica {
 public:
  CacheInvalMaster(sim::Transport* transport, sim::NodeId host,
                   std::unique_ptr<SemanticsObject> semantics,
                   WriteGuard write_guard = nullptr);

  size_t num_caches() const { return group_.num_members(); }
  uint64_t fetches_served() const { return fetches_served_; }

 private:
  // Invalidates every cache and reports an empty round: the write is acked
  // whatever the caches answer.
  void FanOutWrite(const Invocation& write, uint64_t committed, uint64_t commit_point,
                   std::function<void(const FanOutResult&)> done) override;

  uint64_t fetches_served_ = 0;
};

class CacheInvalCache : public Replica {
 public:
  CacheInvalCache(sim::Transport* transport, sim::NodeId host,
                  std::unique_ptr<SemanticsObject> semantics, sim::Endpoint master,
                  WriteGuard write_guard = nullptr);

  // Registers with the master; no state is transferred.
  void Start(std::function<void(Status)> done) override;

  bool valid() const { return valid_; }
  uint64_t fetches() const { return fetches_; }

 private:
  // Serves the read from the local copy, fetching it first if invalid.
  void ServeRead(const Invocation& invocation, sim::NodeId client,
                 InvokeCallback done) override;

  bool valid_ = false;
  // Newest version an invalidation named: a fetch answered below it may serve
  // the read that issued it, but leaves the copy invalid.
  uint64_t invalidated_ = 0;
  uint64_t fetches_ = 0;
};

}  // namespace globe::dso

#endif  // SRC_DSO_CACHE_INVAL_H_
