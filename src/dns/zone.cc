#include "src/dns/zone.h"

#include <algorithm>

#include "src/dns/name.h"
#include "src/util/wire.h"

namespace globe::dns {

Zone::Zone(std::string origin, uint32_t soa_minimum_ttl)
    : origin_(std::move(origin)), soa_minimum_ttl_(soa_minimum_ttl) {}

bool Zone::Contains(std::string_view name) const {
  return IsInZone(name, origin_);
}

Status Zone::Add(ResourceRecord record) {
  if (!Contains(record.name)) {
    return InvalidArgument("record " + record.name + " not in zone " + origin_);
  }
  auto& at_name = records_[record.name];
  // Exact duplicates are idempotent, as in RFC 2136 update semantics.
  if (std::find(at_name.begin(), at_name.end(), record) != at_name.end()) {
    return OkStatus();
  }
  at_name.push_back(std::move(record));
  ++serial_;
  return OkStatus();
}

size_t Zone::Remove(std::string_view name, RrType type) {
  auto it = records_.find(name);
  if (it == records_.end()) {
    return 0;
  }
  auto& at_name = it->second;
  size_t before = at_name.size();
  at_name.erase(std::remove_if(at_name.begin(), at_name.end(),
                               [&](const ResourceRecord& r) { return r.type == type; }),
                at_name.end());
  size_t removed = before - at_name.size();
  if (at_name.empty()) {
    records_.erase(it);
  }
  if (removed > 0) {
    ++serial_;
  }
  return removed;
}

size_t Zone::RemoveName(std::string_view name) {
  auto it = records_.find(name);
  if (it == records_.end()) {
    return 0;
  }
  size_t removed = it->second.size();
  records_.erase(it);
  ++serial_;
  return removed;
}

std::vector<ResourceRecord> Zone::Lookup(std::string_view name, RrType type) const {
  std::vector<ResourceRecord> out;
  auto it = records_.find(name);
  if (it == records_.end()) {
    return out;
  }
  for (const auto& record : it->second) {
    if (record.type == type) {
      out.push_back(record);
    }
  }
  return out;
}

bool Zone::HasName(std::string_view name) const {
  return records_.find(name) != records_.end();
}

size_t Zone::record_count() const {
  size_t count = 0;
  for (const auto& [name, at_name] : records_) {
    count += at_name.size();
  }
  return count;
}

std::vector<ResourceRecord> Zone::AllRecords() const {
  std::vector<ResourceRecord> out;
  for (const auto& [name, at_name] : records_) {
    out.insert(out.end(), at_name.begin(), at_name.end());
  }
  return out;
}

void Zone::Serialize(ByteWriter* writer) const {
  writer->WriteString(origin_);
  writer->WriteU32(soa_minimum_ttl_);
  writer->WriteU32(serial_);
  wire::Put(writer, AllRecords());
}

Result<Zone> Zone::Deserialize(ByteSpan data) {
  ByteReader reader(data);
  ASSIGN_OR_RETURN(std::string origin, reader.ReadString());
  ASSIGN_OR_RETURN(uint32_t soa_minimum, reader.ReadU32());
  ASSIGN_OR_RETURN(uint32_t serial, reader.ReadU32());
  ASSIGN_OR_RETURN(std::vector<ResourceRecord> records,
                   wire::Read<std::vector<ResourceRecord>>(&reader));
  Zone zone(std::move(origin), soa_minimum);
  for (auto& record : records) {
    RETURN_IF_ERROR(zone.Add(std::move(record)));
  }
  zone.serial_ = serial;
  return zone;
}

}  // namespace globe::dns
