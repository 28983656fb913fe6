#include "src/gls/subnode_store.h"

#include <cassert>

#include "src/util/wire.h"

namespace globe::gls {

namespace {
// Cap for the deserialized pointer count: a corrupt cold blob must not drive
// unbounded allocation (the address list is bounded by src/util/wire.h).
constexpr uint64_t kMaxEntryItems = 1000000;

size_t Items(const DirectoryEntry& entry) {
  return entry.addresses.size() + entry.pointers.size();
}

// Decodes a blob this store produced: a failure is a programming error, not
// input corruption.
DirectoryEntry DecodeSpilled(ByteSpan blob) {
  Result<DirectoryEntry> decoded = SubnodeStore::DeserializeEntry(blob);
  assert(decoded.ok() && "corrupt spilled directory entry");
  return decoded.ok() ? std::move(*decoded) : DirectoryEntry{};
}
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
      size_t items = Items(it->second.entry);
      cold_items_ += items;
      cold_.emplace(victim, ColdEntry{std::move(blob), items});
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
    entry = DecodeSpilled(cold_it->second.blob);
    cold_items_ -= cold_it->second.items;
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
    *scratch = DecodeSpilled(cold_it->second.blob);
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
  if (auto cold_it = cold_.find(oid); cold_it != cold_.end()) {
    cold_items_ -= cold_it->second.items;
    cold_.erase(cold_it);
  }
}

size_t SubnodeStore::ItemCount() const {
  size_t total = cold_items_;
  for (const auto& [oid, hot] : hot_) {
    total += Items(hot.entry);
  }
  return total;
}

void SubnodeStore::ForEachSorted(
    const std::function<void(const ObjectId&, const DirectoryEntry&)>& fn) const {
  // Neither tier is ordered: sort one view of both, each key pointing at its
  // resident entry or its blob.
  struct Slot {
    const ObjectId* oid;
    const DirectoryEntry* hot;
    const Bytes* blob;
  };
  std::vector<Slot> slots;
  slots.reserve(Size());
  for (const auto& [oid, hot] : hot_) {
    slots.push_back({&oid, &hot.entry, nullptr});
  }
  for (const auto& [oid, cold] : cold_) {
    slots.push_back({&oid, nullptr, &cold.blob});
  }
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return *a.oid < *b.oid; });
  for (const Slot& slot : slots) {
    if (slot.hot != nullptr) {
      fn(*slot.oid, *slot.hot);
    } else {
      fn(*slot.oid, DecodeSpilled(*slot.blob));
    }
  }
}

void SubnodeStore::DrainSorted(std::vector<SpilledEntry>* out) {
  size_t first = out->size();
  out->reserve(first + Size());
  for (const auto& [oid, hot] : hot_) {
    out->push_back({oid, SerializeEntry(hot.entry), Items(hot.entry)});
  }
  for (auto& [oid, cold] : cold_) {
    out->push_back({oid, std::move(cold.blob), cold.items});
  }
  std::sort(out->begin() + static_cast<std::ptrdiff_t>(first), out->end(),
            [](const SpilledEntry& a, const SpilledEntry& b) { return a.oid < b.oid; });
  Clear();
}

void SubnodeStore::Fill(std::span<SpilledEntry> entries) {
  assert(Size() == 0 && "Fill needs an empty store");
  // Mutable-assigning the non-empty entries in turn (empty ones are dropped,
  // as EnforceCapacity drops them) evicts the LRU tail, the earliest entry,
  // once per entry past the capacity; so exactly the first `to_spill` of them
  // end cold, each serialized once, and the rest end resident.
  size_t non_empty = static_cast<size_t>(std::count_if(
      entries.begin(), entries.end(), [](const SpilledEntry& e) { return e.items > 0; }));
  size_t to_spill = capacity_ == 0 || non_empty <= capacity_ ? 0 : non_empty - capacity_;
  hot_.reserve(non_empty - to_spill);
  cold_.reserve(to_spill);
  for (SpilledEntry& spilled : entries) {
    if (spilled.items == 0) {
      continue;
    }
    if (to_spill > 0) {
      --to_spill;
      spilled_bytes_ += spilled.blob.size();
      ++evictions_;
      cold_items_ += spilled.items;
      cold_.emplace(spilled.oid, ColdEntry{std::move(spilled.blob), spilled.items});
    } else {
      InsertHot(spilled.oid, DecodeSpilled(spilled.blob));
    }
  }
  peak_resident_ = std::max(peak_resident_, hot_.size());
}

void SubnodeStore::Clear() {
  hot_.clear();
  lru_.clear();
  cold_.clear();
  cold_items_ = 0;
}

}  // namespace globe::gls
