#include "src/gls/oid.h"

#include "src/util/bytes.h"

namespace globe::gls {

ObjectId ObjectId::Generate(Rng* rng) {
  ObjectId oid;
  Bytes random = rng->RandomBytes(kSize);
  std::copy(random.begin(), random.end(), oid.bytes_.begin());
  return oid;
}

Result<ObjectId> ObjectId::FromHex(std::string_view hex) {
  Bytes decoded;
  if (!HexDecode(hex, &decoded) || decoded.size() != kSize) {
    return InvalidArgument("bad object identifier hex: " + std::string(hex));
  }
  ObjectId oid;
  std::copy(decoded.begin(), decoded.end(), oid.bytes_.begin());
  return oid;
}

std::string ObjectId::ToHex() const {
  return HexEncode(ByteSpan(bytes_.data(), bytes_.size()));
}

bool ObjectId::IsNil() const {
  for (uint8_t b : bytes_) {
    if (b != 0) {
      return false;
    }
  }
  return true;
}

uint64_t ObjectId::Hash() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes_) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string_view ReplicaRoleName(ReplicaRole role) {
  switch (role) {
    case ReplicaRole::kMaster:
      return "master";
    case ReplicaRole::kSlave:
      return "slave";
    case ReplicaRole::kCache:
      return "cache";
  }
  return "?";
}

std::string ContactAddress::ToString() const {
  return sim::ToString(endpoint) + "/proto" + std::to_string(protocol) + "/" +
         std::string(ReplicaRoleName(role));
}

}  // namespace globe::gls
