#include "src/gls/subnode_store.h"

#include <cassert>

#include "src/util/wire.h"

namespace globe::gls {

namespace {
// Cap for the deserialized pointer count: a corrupt cold blob must not drive
// unbounded allocation (the address list is bounded by src/util/wire.h).
constexpr uint64_t kMaxEntryItems = 1000000;
}  // namespace

Bytes SubnodeStore::SerializeEntry(const DirectoryEntry& entry) {
  ByteWriter w;
  wire::Put(&w, entry.addresses);
  w.WriteVarint(entry.pointers.size());
  for (sim::DomainId domain : entry.pointers) {
    w.WriteU32(domain);
  }
  return w.Take();
}

Result<DirectoryEntry> SubnodeStore::DeserializeEntry(ByteSpan data) {
  ByteReader r(data);
  DirectoryEntry entry;
  ASSIGN_OR_RETURN(entry.addresses, wire::Read<std::vector<ContactAddress>>(&r));
  ASSIGN_OR_RETURN(uint64_t pointer_count, r.ReadVarint());
  if (pointer_count > kMaxEntryItems) {
    return InvalidArgument("implausible spilled pointer count");
  }
  for (uint64_t i = 0; i < pointer_count; ++i) {
    ASSIGN_OR_RETURN(uint32_t domain, r.ReadU32());
    entry.pointers.insert(domain);
  }
  return entry;
}

SubnodeStore::HotEntry& SubnodeStore::InsertHot(const ObjectId& oid,
                                                DirectoryEntry entry) {
  lru_.push_front(oid);
  HotEntry& hot = hot_[oid];
  hot.entry = std::move(entry);
  hot.lru_it = lru_.begin();
  return hot;
}

void SubnodeStore::EnforceCapacity() {
  if (capacity_ == 0) {
    return;
  }
  while (hot_.size() > capacity_) {
    const ObjectId victim = lru_.back();
    auto it = hot_.find(victim);
    // Empty entries are dropped rather than spilled: they carry no state and
    // must not resurrect as registrations.
    if (!it->second.entry.Empty()) {
      Bytes blob = SerializeEntry(it->second.entry);
      spilled_bytes_ += blob.size();
      cold_[victim] = std::move(blob);
      ++evictions_;
    }
    hot_.erase(it);
    lru_.pop_back();
  }
}

DirectoryEntry& SubnodeStore::Mutable(const ObjectId& oid) {
  if (auto it = hot_.find(oid); it != hot_.end()) {
    Touch(it->second);
    return it->second.entry;
  }
  DirectoryEntry entry;
  if (auto cold_it = cold_.find(oid); cold_it != cold_.end()) {
    // Fault-in: the cold blob was produced by SerializeEntry, so a decode
    // failure is a programming error, not input corruption.
    Result<DirectoryEntry> decoded = DeserializeEntry(cold_it->second);
    assert(decoded.ok() && "corrupt spilled directory entry");
    if (decoded.ok()) {
      entry = std::move(*decoded);
    }
    cold_.erase(cold_it);
    ++fault_ins_;
  }
  HotEntry& hot = InsertHot(oid, std::move(entry));
  // The fresh entry sits at the LRU front, so enforcing capacity now can only
  // evict *other* entries — the returned reference stays valid. Peak resident
  // is sampled after enforcement: it reports the bound the store actually held.
  EnforceCapacity();
  peak_resident_ = std::max(peak_resident_, hot_.size());
  return hot.entry;
}

DirectoryEntry* SubnodeStore::Find(const ObjectId& oid) {
  if (auto it = hot_.find(oid); it != hot_.end()) {
    Touch(it->second);
    return &it->second.entry;
  }
  if (cold_.count(oid) == 0) {
    return nullptr;
  }
  return &Mutable(oid);
}

const DirectoryEntry* SubnodeStore::Peek(const ObjectId& oid,
                                         DirectoryEntry* scratch) const {
  if (auto it = hot_.find(oid); it != hot_.end()) {
    return &it->second.entry;
  }
  if (auto cold_it = cold_.find(oid); cold_it != cold_.end()) {
    Result<DirectoryEntry> decoded = DeserializeEntry(cold_it->second);
    assert(decoded.ok() && "corrupt spilled directory entry");
    if (!decoded.ok()) {
      return nullptr;
    }
    *scratch = std::move(*decoded);
    return scratch;
  }
  return nullptr;
}

void SubnodeStore::Erase(const ObjectId& oid) {
  if (auto it = hot_.find(oid); it != hot_.end()) {
    lru_.erase(it->second.lru_it);
    hot_.erase(it);
    return;
  }
  cold_.erase(oid);
}

void SubnodeStore::ForEachSorted(
    const std::function<void(const ObjectId&, const DirectoryEntry&)>& fn) const {
  // Merge a sorted view of the hot keys with the (already sorted) cold map.
  std::vector<const ObjectId*> hot_keys;
  hot_keys.reserve(hot_.size());
  for (const auto& [oid, unused] : hot_) {
    hot_keys.push_back(&oid);
  }
  std::sort(hot_keys.begin(), hot_keys.end(),
            [](const ObjectId* a, const ObjectId* b) { return *a < *b; });

  auto cold_it = cold_.begin();
  size_t hot_idx = 0;
  while (hot_idx < hot_keys.size() || cold_it != cold_.end()) {
    bool take_hot =
        cold_it == cold_.end() ||
        (hot_idx < hot_keys.size() && *hot_keys[hot_idx] < cold_it->first);
    if (take_hot) {
      const ObjectId& oid = *hot_keys[hot_idx++];
      fn(oid, hot_.at(oid).entry);
    } else {
      Result<DirectoryEntry> decoded = DeserializeEntry(cold_it->second);
      assert(decoded.ok() && "corrupt spilled directory entry");
      if (decoded.ok()) {
        fn(cold_it->first, *decoded);
      }
      ++cold_it;
    }
  }
}

void SubnodeStore::Clear() {
  hot_.clear();
  lru_.clear();
  cold_.clear();
}

}  // namespace globe::gls
