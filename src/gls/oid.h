// Object identifiers and contact addresses — the two value types the Globe Location
// Service deals in (paper §3.4): a worldwide-unique, location-independent OID is
// mapped by the GLS to the contact addresses of the object's replicas, each of which
// says where (network address, port) and how (replication protocol) to reach a local
// representative.

#ifndef SRC_GLS_OID_H_
#define SRC_GLS_OID_H_

#include <array>
#include <cstdint>
#include <string>
#include <tuple>

#include "src/sim/endpoint.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace globe::gls {

class ObjectId {
 public:
  static constexpr size_t kSize = 16;  // 128-bit identifiers

  ObjectId() { bytes_.fill(0); }

  static ObjectId Generate(Rng* rng);
  static Result<ObjectId> FromHex(std::string_view hex);

  std::string ToHex() const;
  bool IsNil() const;

  // Stable hash used for subnode partitioning ("a special hashing technique", §3.5)
  // — FNV-1a over the identifier bytes.
  uint64_t Hash() const;

  bool operator==(const ObjectId&) const = default;
  auto operator<=>(const ObjectId&) const = default;

 private:
  std::array<uint8_t, kSize> bytes_;

 public:
  static constexpr auto kWireFields = std::tuple(&ObjectId::bytes_);
};

// Identifies a replication protocol inside a contact address. The concrete protocol
// implementations live in src/dso; the GLS treats this as an opaque number.
using ProtocolId = uint16_t;

// The role a local representative plays within its distributed shared object.
enum class ReplicaRole : uint8_t {
  kMaster = 0,  // authoritative copy (client/server server, master/slave master)
  kSlave = 1,   // secondary replica
  kCache = 2,   // demand-loaded cache (e.g. in a GDN-HTTPD)
};

std::string_view ReplicaRoleName(ReplicaRole role);

struct ContactAddress {
  sim::Endpoint endpoint;
  ProtocolId protocol = 0;
  ReplicaRole role = ReplicaRole::kMaster;

  bool operator==(const ContactAddress&) const = default;
  auto operator<=>(const ContactAddress&) const = default;

  static constexpr auto kWireFields = std::tuple(
      &ContactAddress::endpoint, &ContactAddress::protocol, &ContactAddress::role);

  std::string ToString() const;
};

}  // namespace globe::gls

#endif  // SRC_GLS_OID_H_
