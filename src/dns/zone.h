// An authoritative DNS zone: the unit of authority, transfer and update.
//
// The GDN registers all package names in one leaf zone, the "GDN Zone" (paper §5),
// kept on a primary name server and replicated to secondaries via zone transfer.

#ifndef SRC_DNS_ZONE_H_
#define SRC_DNS_ZONE_H_

#include <map>
#include <string>
#include <vector>

#include "src/dns/record.h"
#include "src/util/serial.h"
#include "src/util/status.h"

namespace globe::dns {

class Zone {
 public:
  Zone() = default;
  // `origin` must already be canonical. The SOA minimum TTL doubles as the negative
  // caching TTL, as in RFC 2308.
  Zone(std::string origin, uint32_t soa_minimum_ttl = 300);

  const std::string& origin() const { return origin_; }
  uint32_t serial() const { return serial_; }
  uint32_t soa_minimum_ttl() const { return soa_minimum_ttl_; }

  // True if the owner name falls under this zone's origin.
  bool Contains(std::string_view name) const;

  // Adds a record (owner name must be in the zone) and bumps the serial.
  Status Add(ResourceRecord record);

  // Removes all records with the given owner name (and type, unless type is nullopt
  // semantics via RemoveName). Bumps the serial if anything was removed.
  size_t Remove(std::string_view name, RrType type);
  size_t RemoveName(std::string_view name);

  // Records with the exact owner name and type. Empty if none.
  std::vector<ResourceRecord> Lookup(std::string_view name, RrType type) const;

  // True if any record exists under the owner name.
  bool HasName(std::string_view name) const;

  size_t record_count() const;
  std::vector<ResourceRecord> AllRecords() const;

  // Zone transfer: full serialization, including origin and serial.
  void Serialize(ByteWriter* writer) const;
  static Result<Zone> Deserialize(ByteSpan data);

 private:
  std::string origin_;
  uint32_t soa_minimum_ttl_ = 300;
  uint32_t serial_ = 1;
  // owner name -> records at that name
  std::map<std::string, std::vector<ResourceRecord>, std::less<>> records_;
};

}  // namespace globe::dns

#endif  // SRC_DNS_ZONE_H_
