// TTL'd lookup cache for Globe Location Service directory subnodes.
//
// Lookups climb the directory tree and then descend a forwarding-pointer chain to
// the node holding a contact address (paper §3.5). Under GDN-scale read traffic the
// mid-tree nodes re-answer the same hot OIDs over and over; each subnode therefore
// keeps a small cache of the contact addresses its *descents* returned. A hit lets
// the node answer immediately instead of re-walking the pointer chain, cutting the
// descent half of the lookup's directory-to-directory hops.
//
// Scope and safety rules (enforced by DirectorySubnode, documented here):
//   - populated only on lookup descent, i.e. only at nodes that hold a forwarding
//     pointer for the OID — exactly the nodes a deregistration chain visits,
//   - only authoritative answers are stored (never a descendant's cache hit, which
//     would restart the TTL and compound staleness),
//   - consulted only for lookups that set allow_cached, never for mutations,
//   - invalidated by every mutation touching the OID at this node (gls.insert,
//     gls.delete, gls.install_ptr, gls.remove_ptr and the gls.inval_cache chain a
//     delete sends towards the root); an invalidation also quarantines the OID
//     briefly so a lookup response that was already in flight when the delete ran
//     cannot re-install the deregistered address behind it,
//   - entries additionally expire after a TTL, bounding staleness across subnodes
//     that no mutation chain visits.

#ifndef SRC_GLS_CACHE_H_
#define SRC_GLS_CACHE_H_

#include <deque>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "src/gls/oid.h"
#include "src/sim/clock.h"
#include "src/util/serial.h"

namespace globe::gls {

class LookupCache {
 public:
  struct Entry {
    std::vector<ContactAddress> addresses;
    int32_t found_depth = 0;
    sim::SimTime expires_at = 0;
    // Negative entry: a recent climb for this OID came back NotFound. Served
    // (as NotFound) only to allow_cached lookups, so repeat misses for deleted
    // or unknown OIDs stop at the first cache instead of re-climbing to the
    // root. Short-TTL'd: an OID registered elsewhere becomes visible here at
    // the latest when the negative entry expires (insert/install_ptr chains
    // invalidate the nodes they touch immediately).
    uint8_t negative = 0;

    static constexpr auto kWireFields = std::tuple(
        &Entry::addresses, &Entry::found_depth, &Entry::expires_at, &Entry::negative);
  };

  // Default TTL for negative entries: long enough to absorb a miss storm,
  // short enough that a registration the local mutation chains never touch
  // becomes visible quickly. Re-caching a parent's negative answer restarts
  // this TTL, so worst-case staleness is bounded by depth x negative TTL.
  static constexpr sim::SimTime kDefaultNegativeTtl = 5 * sim::kSecond;

  // How long Put refuses to re-admit an OID after Invalidate. Sized to outlive any
  // response that was in flight when the invalidation ran: with per-request
  // service-time queueing a response can trail its request by up to the issuing
  // call's deadline (default 30 s), not just the network delivery delay. A descent
  // request issued *after* the invalidating delete sees post-delete (safe) state
  // anyway, and only deregistration paths quarantine, so this long window never
  // blocks the hot insert -> lookup -> cache sequence.
  static constexpr sim::SimTime kPutQuarantine = 30 * sim::kSecond;

  // Entry bound of a directory subnode's cache.
  static constexpr size_t kDefaultMaxEntries = 4096;

  LookupCache(sim::SimTime ttl, size_t max_entries = kDefaultMaxEntries,
              sim::SimTime negative_ttl = kDefaultNegativeTtl)
      : ttl_(ttl), negative_ttl_(negative_ttl), max_entries_(max_entries) {}

  // The live entry for `oid`, or nullptr. An expired entry is erased on access.
  const Entry* Get(const ObjectId& oid, sim::SimTime now);

  // Stores (or refreshes) the entry for `oid` with expiry now + ttl. No-op while
  // the OID is quarantined by a recent Invalidate. Evicts the entry closest to
  // expiry when full.
  void Put(const ObjectId& oid, std::vector<ContactAddress> addresses,
           int32_t found_depth, sim::SimTime now);

  // Stores a negative (NotFound) entry with expiry now + negative_ttl. Respects
  // the same quarantine and capacity rules as Put; overwrites any positive
  // entry (the authoritative chain just said the OID is gone).
  void PutNegative(const ObjectId& oid, sim::SimTime now);

  // Drops the entry for `oid`. With `quarantine` set it additionally blocks Put
  // for the OID until now + kPutQuarantine — required on deregistration paths,
  // where an in-flight pre-delete answer must not re-install the removed address;
  // insert-driven invalidation skips it (re-caching a pre-insert answer is only
  // TTL-bounded nearness staleness). Returns true if an entry was present.
  bool Invalidate(const ObjectId& oid, sim::SimTime now, bool quarantine = true);

  void Clear();
  size_t size() const { return entries_.size(); }
  sim::SimTime ttl() const { return ttl_; }
  sim::SimTime negative_ttl() const { return negative_ttl_; }

  // Persistence: cache contents ride along in DirectorySubnode::SaveState so a
  // rebooted subnode resumes warm. Expiry times are absolute simulated time;
  // quarantines are transient and not persisted.
  void Serialize(ByteWriter* writer) const;
  Status Restore(ByteReader* reader);

 private:
  void EvictOne();
  // Shared tail of Put/PutNegative: quarantine and capacity checks, then the
  // entry install and order-queue upkeep.
  Entry* Install(const ObjectId& oid, sim::SimTime now, sim::SimTime ttl);

  sim::SimTime ttl_;
  sim::SimTime negative_ttl_;
  size_t max_entries_;
  std::map<ObjectId, Entry> entries_;
  // Insertion order approximates expiry order (exactly, before negative entries
  // existed; their shorter TTL can put a sooner-expiring entry behind a later
  // one), so the front of this queue is the eviction victim. Refreshed or
  // invalidated entries leave stale queue references behind; EvictOne skips them
  // and PruneOrder() compacts the queue when they accumulate.
  std::deque<std::pair<ObjectId, sim::SimTime>> order_;
  // OID -> time until which Put must refuse it (see kPutQuarantine).
  std::map<ObjectId, sim::SimTime> quarantined_;

  void PruneOrder();
  void PruneQuarantine(sim::SimTime now);
};

}  // namespace globe::gls

#endif  // SRC_GLS_CACHE_H_
