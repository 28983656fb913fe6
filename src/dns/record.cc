#include "src/dns/record.h"

namespace globe::dns {

std::string_view RrTypeName(RrType type) {
  switch (type) {
    case RrType::kA:
      return "A";
    case RrType::kNs:
      return "NS";
    case RrType::kCname:
      return "CNAME";
    case RrType::kSoa:
      return "SOA";
    case RrType::kTxt:
      return "TXT";
  }
  return "?";
}

}  // namespace globe::dns
