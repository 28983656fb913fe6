#include "src/util/hmac.h"

namespace globe {

HmacKey::HmacKey(ByteSpan key) {
  constexpr size_t kBlock = Sha256::kBlockSize;
  Bytes k(kBlock, 0);
  if (key.size() > kBlock) {
    auto digest = Sha256::Digest(key);
    std::copy(digest.begin(), digest.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  Bytes pad(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    pad[i] = k[i] ^ 0x36;
  }
  inner_midstate_.Update(pad);
  for (size_t i = 0; i < kBlock; ++i) {
    pad[i] = k[i] ^ 0x5c;
  }
  outer_midstate_.Update(pad);
}

std::array<uint8_t, Sha256::kDigestSize> HmacKey::Finish(Sha256 inner) const {
  auto inner_digest = inner.Finish();
  Sha256 outer = outer_midstate_;
  outer.Update(inner_digest);
  return outer.Finish();
}

bool HmacKey::Verify(Sha256 inner, ByteSpan mac) const {
  return ConstantTimeEqual(Finish(std::move(inner)), mac);
}

std::array<uint8_t, Sha256::kDigestSize> HmacKey::Mac(ByteSpan message) const {
  Sha256 inner = Start();
  inner.Update(message);
  return Finish(std::move(inner));
}

Bytes HmacSha256(ByteSpan key, ByteSpan message) { return ToBytes(HmacKey(key).Mac(message)); }

bool VerifyHmacSha256(ByteSpan key, ByteSpan message, ByteSpan mac) {
  Bytes expected = HmacSha256(key, message);
  return ConstantTimeEqual(expected, mac);
}

}  // namespace globe
