// DNS resource records.
//
// The GNS stores a Globe object identifier in a TXT record under the package's DNS
// name (paper §5): "These DNS names point to a TXT DNS Resource Record that contains
// the encoded object identifier for the DSO."

#ifndef SRC_DNS_RECORD_H_
#define SRC_DNS_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

namespace globe::dns {

enum class RrType : uint16_t {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kSoa = 6,
  kTxt = 16,
};

std::string_view RrTypeName(RrType type);

struct ResourceRecord {
  std::string name;   // canonical owner name
  RrType type = RrType::kTxt;
  uint32_t ttl = 3600;  // seconds
  std::string data;   // presentation-form RDATA (TXT payload, NS target, ...)

  bool operator==(const ResourceRecord&) const = default;

  static constexpr auto kWireFields =
      std::tuple(&ResourceRecord::name, &ResourceRecord::type, &ResourceRecord::ttl,
                 &ResourceRecord::data);
};

}  // namespace globe::dns

#endif  // SRC_DNS_RECORD_H_
