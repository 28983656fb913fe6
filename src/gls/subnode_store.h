// Memory-bounded per-subnode directory storage.
//
// A planet-scale world registers millions of OIDs, but a directory subnode's
// working set at any moment is much smaller (Zipf: a few hot objects take most
// of the traffic). SubnodeStore therefore keeps a bounded number of entries
// resident — hashed map + LRU list — and spills the cold tail to a per-subnode
// cold store of serialized blobs, the simulation stand-in for the paper's §7
// on-disk directory state. Access to a spilled entry transparently faults it
// back in (and may evict another). Nothing is ever lost to eviction: an entry
// leaves the store only through explicit Erase.
//
// The cold tier is hashed like the hot one and keeps each blob's item count
// (addresses plus pointers), so counting the store's items decodes nothing. A
// directory split moves entries between stores in that serialized form
// (DrainSorted / Fill) instead of decoding and re-encoding every one.
//
// One entry merges what DirectorySubnode historically kept in two parallel
// maps: the contact addresses registered at this node and the forwarding
// pointers to child domains. Merging them halves the hash lookups on the
// mutation path and makes spill/fault-in atomic per OID.
//
// Iteration order guarantee: ForEachSorted and DrainSorted visit entries in
// ascending OID order regardless of hot/cold placement (neither tier is
// ordered; both sort their keys per walk), so serialized subnode state (and
// its hash) is independent of the access pattern that shaped the LRU — the
// determinism suite relies on this.

#ifndef SRC_GLS_SUBNODE_STORE_H_
#define SRC_GLS_SUBNODE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/gls/oid.h"
#include "src/sim/topology.h"

namespace globe::gls {

// Bucket hash for the hashed maps keyed by OID (the store's two tiers, the
// ownership records). ObjectId::Hash stays the partitioning hash; this one
// mixes the identifier's two 64-bit halves in a few instructions, cheap
// enough to recompute that, being noexcept, libstdc++ stores no hash code in
// each node.
struct OidHash {
  size_t operator()(const ObjectId& oid) const noexcept {
    uint64_t words[2];
    static_assert(sizeof(words) == sizeof(ObjectId));
    std::memcpy(words, &oid, sizeof(words));
    uint64_t h = words[0] ^ (words[1] * 0x9E3779B97F4A7C15ULL);
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    h ^= h >> 32;
    return h;
  }
};

// Everything a directory subnode knows about one OID (ownership records are
// kept separately: they exist only at the root home and are never evicted).
struct DirectoryEntry {
  std::vector<ContactAddress> addresses;
  std::set<sim::DomainId> pointers;

  bool Empty() const { return addresses.empty() && pointers.empty(); }
};

class SubnodeStore {
 public:
  // One entry in its serialized form, as a directory split carries it from
  // store to store: the SerializeEntry blob and the entry's item count.
  struct SpilledEntry {
    ObjectId oid;
    Bytes blob;
    size_t items = 0;  // addresses + pointers
  };

  // `capacity` bounds the number of resident (hot) entries; 0 = unbounded,
  // which preserves the historical everything-in-memory behaviour.
  explicit SubnodeStore(size_t capacity = 0) : capacity_(capacity) {
    if (capacity_ > 0) {
      hot_.reserve(capacity_ + 1);
    }
  }

  // Mutable entry for `oid`, created if absent, faulted in if spilled. The
  // reference is invalidated by any other non-const call on the store — take
  // it, mutate, let go.
  DirectoryEntry& Mutable(const ObjectId& oid);

  // Entry for `oid` or nullptr (never creates); faults a spilled entry back in
  // (LRU promote). Same reference lifetime rule as Mutable.
  DirectoryEntry* Find(const ObjectId& oid);

  // Read-only probe that never disturbs the LRU: a hot entry is returned by
  // pointer (into `scratch`-independent storage), a cold entry is deserialized
  // into `*scratch`. Returns nullptr if the OID is unknown.
  const DirectoryEntry* Peek(const ObjectId& oid, DirectoryEntry* scratch) const;

  bool Contains(const ObjectId& oid) const {
    return hot_.count(oid) > 0 || cold_.count(oid) > 0;
  }

  // Removes the entry wherever it lives. Call after a mutation leaves an
  // entry Empty(): empty entries are never spilled, they are dropped.
  void Erase(const ObjectId& oid);

  size_t Size() const { return hot_.size() + cold_.size(); }
  size_t ResidentSize() const { return hot_.size(); }
  // The resident OIDs in LRU order, most recently used first.
  std::vector<ObjectId> ResidentOids() const { return {lru_.begin(), lru_.end()}; }
  size_t capacity() const { return capacity_; }

  // Addresses plus pointers over every entry: the resident entries are summed,
  // the cold tier's count is kept as entries spill and fault in.
  size_t ItemCount() const;

  // Visits every entry in ascending OID order, independent of placement; cold
  // entries are materialized transiently without being faulted in.
  void ForEachSorted(
      const std::function<void(const ObjectId&, const DirectoryEntry&)>& fn) const;

  // Empties the store, appending every entry to `out` in ascending OID order:
  // resident entries are serialized, spilled blobs move as they are. The
  // counters are kept, as Clear keeps them.
  void DrainSorted(std::vector<SpilledEntry>* out);

  // Fills an empty store with `entries`, moving their blobs out, and leaves it
  // (entries, resident set, LRU order, counters) exactly as Mutable-assigning
  // each non-empty entry in turn would: the last `capacity` of them decoded
  // and resident, the latest at the LRU front, and every earlier one spilled
  // once, counted as an eviction and its blob's bytes.
  void Fill(std::span<SpilledEntry> entries);

  void Clear();

  // Spill/fault accounting (monotone over the store's lifetime).
  uint64_t evictions() const { return evictions_; }
  uint64_t fault_ins() const { return fault_ins_; }
  uint64_t spilled_bytes() const { return spilled_bytes_; }
  size_t peak_resident() const { return peak_resident_; }

  static Bytes SerializeEntry(const DirectoryEntry& entry);
  static Result<DirectoryEntry> DeserializeEntry(ByteSpan data);

 private:
  struct HotEntry {
    DirectoryEntry entry;
    std::list<ObjectId>::iterator lru_it;  // position in lru_ (front = hottest)
  };

  // Moves `it` to the LRU front.
  void Touch(HotEntry& hot) { lru_.splice(lru_.begin(), lru_, hot.lru_it); }
  // Inserts a hot entry at the LRU front and returns it.
  HotEntry& InsertHot(const ObjectId& oid, DirectoryEntry entry);
  // Evicts LRU-tail entries until the resident count is within capacity.
  void EnforceCapacity();

  struct ColdEntry {
    Bytes blob;
    size_t items = 0;  // addresses + pointers in the blob
  };

  size_t capacity_;
  std::unordered_map<ObjectId, HotEntry, OidHash> hot_;
  std::list<ObjectId> lru_;
  // The cold store: serialized entries, the stand-in for per-subnode disk,
  // and the sum of their item counts.
  std::unordered_map<ObjectId, ColdEntry, OidHash> cold_;
  size_t cold_items_ = 0;

  uint64_t evictions_ = 0;
  uint64_t fault_ins_ = 0;
  uint64_t spilled_bytes_ = 0;
  size_t peak_resident_ = 0;
};

}  // namespace globe::gls

#endif  // SRC_GLS_SUBNODE_STORE_H_
