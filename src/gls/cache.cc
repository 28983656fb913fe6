#include "src/gls/cache.h"

#include <algorithm>

#include "src/util/wire.h"

namespace globe::gls {

const LookupCache::Entry* LookupCache::Get(const ObjectId& oid, sim::SimTime now) {
  auto it = entries_.find(oid);
  if (it == entries_.end()) {
    return nullptr;
  }
  if (it->second.expires_at <= now) {
    entries_.erase(it);
    return nullptr;
  }
  return &it->second;
}

LookupCache::Entry* LookupCache::Install(const ObjectId& oid, sim::SimTime now,
                                         sim::SimTime ttl) {
  if (max_entries_ == 0) {
    return nullptr;
  }
  if (auto it = quarantined_.find(oid); it != quarantined_.end()) {
    if (now < it->second) {
      return nullptr;  // a recent invalidation outranks this (possibly stale) answer
    }
    quarantined_.erase(it);
  }
  if (entries_.count(oid) == 0 && entries_.size() >= max_entries_) {
    EvictOne();
  }
  Entry& entry = entries_[oid];
  entry.expires_at = now + ttl;
  order_.emplace_back(oid, entry.expires_at);
  if (order_.size() > 2 * max_entries_) {
    PruneOrder();
  }
  PruneQuarantine(now);
  return &entry;
}

void LookupCache::Put(const ObjectId& oid, std::vector<ContactAddress> addresses,
                      int32_t found_depth, sim::SimTime now) {
  if (addresses.empty()) {
    return;
  }
  Entry* entry = Install(oid, now, ttl_);
  if (entry == nullptr) {
    return;
  }
  entry->addresses = std::move(addresses);
  entry->found_depth = found_depth;
  entry->negative = 0;
}

void LookupCache::PutNegative(const ObjectId& oid, sim::SimTime now) {
  Entry* entry = Install(oid, now, negative_ttl_);
  if (entry == nullptr) {
    return;
  }
  entry->addresses.clear();
  entry->found_depth = 0;
  entry->negative = 1;
}

bool LookupCache::Invalidate(const ObjectId& oid, sim::SimTime now, bool quarantine) {
  if (quarantine) {
    quarantined_[oid] = now + kPutQuarantine;
    PruneQuarantine(now);
  }
  return entries_.erase(oid) > 0;
}

void LookupCache::Clear() {
  entries_.clear();
  order_.clear();
  quarantined_.clear();
}

void LookupCache::EvictOne() {
  // Skip queue references that no longer match a live entry (refreshed or
  // invalidated since they were enqueued).
  while (!order_.empty()) {
    const auto& [oid, expires_at] = order_.front();
    auto it = entries_.find(oid);
    if (it != entries_.end() && it->second.expires_at == expires_at) {
      entries_.erase(it);
      order_.pop_front();
      return;
    }
    order_.pop_front();
  }
  // Queue out of sync (only possible right after Restore of a corrupt mix):
  // drop an arbitrary entry rather than grow without bound.
  if (!entries_.empty()) {
    entries_.erase(entries_.begin());
  }
}

void LookupCache::PruneOrder() {
  std::deque<std::pair<ObjectId, sim::SimTime>> live;
  for (const auto& [oid, expires_at] : order_) {
    auto it = entries_.find(oid);
    if (it != entries_.end() && it->second.expires_at == expires_at) {
      live.push_back({oid, expires_at});
    }
  }
  order_ = std::move(live);
}

void LookupCache::PruneQuarantine(sim::SimTime now) {
  if (quarantined_.size() <= std::max<size_t>(max_entries_, 64)) {
    return;
  }
  for (auto it = quarantined_.begin(); it != quarantined_.end();) {
    it = it->second <= now ? quarantined_.erase(it) : std::next(it);
  }
}

void LookupCache::Serialize(ByteWriter* writer) const {
  writer->WriteVarint(entries_.size());
  for (const auto& [oid, entry] : entries_) {
    wire::Put(writer, oid);
    wire::Put(writer, entry);
  }
}

Status LookupCache::Restore(ByteReader* reader) {
  // The codec bounds the count against corrupt input; a count merely exceeding
  // the current capacity (e.g. the cache was reconfigured smaller across the
  // reboot) is handled by truncation below — a droppable cache must never fail
  // a subnode's recovery of its authoritative state.
  using Item = std::pair<ObjectId, Entry>;
  ASSIGN_OR_RETURN(std::vector<Item> items, wire::Read<std::vector<Item>>(reader));
  std::map<ObjectId, Entry> entries;
  for (auto& [oid, entry] : items) {
    entries[oid] = std::move(entry);
  }
  // Rebuild the eviction queue in expiry order; when the checkpoint holds more
  // entries than this cache's capacity, keep the ones furthest from expiry.
  std::vector<std::pair<sim::SimTime, ObjectId>> by_expiry;
  for (const auto& [oid, entry] : entries) {
    by_expiry.emplace_back(entry.expires_at, oid);
  }
  std::sort(by_expiry.begin(), by_expiry.end());
  size_t drop = by_expiry.size() > max_entries_ ? by_expiry.size() - max_entries_ : 0;
  for (size_t i = 0; i < drop; ++i) {
    entries.erase(by_expiry[i].second);
  }
  entries_ = std::move(entries);
  order_.clear();
  for (size_t i = drop; i < by_expiry.size(); ++i) {
    order_.emplace_back(by_expiry[i].second, by_expiry[i].first);
  }
  quarantined_.clear();
  return OkStatus();
}

}  // namespace globe::gls
