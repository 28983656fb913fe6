// HMAC-SHA-256 (RFC 2104), built on src/util/sha256.h.
//
// This is the integrity primitive behind the simulated TLS channels (§6.3) and the
// TSIG protection of DNS UPDATE messages sent by the GNS Naming Authority (§6.3).

#ifndef SRC_UTIL_HMAC_H_
#define SRC_UTIL_HMAC_H_

#include "src/util/bytes.h"
#include "src/util/sha256.h"

namespace globe {

// A prepared HMAC-SHA-256 key: the padded key block's inner (key ^ ipad) and
// outer (key ^ opad) compression states are computed once at construction and
// every MAC starts from a copy of them. That saves two SHA-256 block
// compressions per MAC versus the one-shot functions below — exactly the
// per-frame cost a long-lived session key pays over and over — and the
// streaming interface lets callers MAC multi-part input (header fields +
// ciphertext) without concatenating it into a scratch buffer first. MAC values
// are byte-identical to HmacSha256().
class HmacKey {
 public:
  HmacKey() : HmacKey(ByteSpan{}) {}
  explicit HmacKey(ByteSpan key);

  // Starts a MAC: feed message parts with Sha256::Update, then Finish()/Verify().
  Sha256 Start() const { return inner_midstate_; }

  // Completes the MAC over everything fed to `inner`. The MAC lives on the
  // stack: a per-frame MAC allocates nothing.
  std::array<uint8_t, Sha256::kDigestSize> Finish(Sha256 inner) const;

  // Completes the MAC and compares it against `mac` in constant time.
  bool Verify(Sha256 inner, ByteSpan mac) const;

  // One-shot convenience over a single part.
  std::array<uint8_t, Sha256::kDigestSize> Mac(ByteSpan message) const;

 private:
  Sha256 inner_midstate_;  // one block of key ^ ipad absorbed
  Sha256 outer_midstate_;  // one block of key ^ opad absorbed
};

// Computes HMAC-SHA-256(key, message). Keys longer than the block size are hashed
// first, exactly as RFC 2104 prescribes. Prefer HmacKey when the same key MACs
// more than one message.
Bytes HmacSha256(ByteSpan key, ByteSpan message);

// Verifies a MAC in constant time.
bool VerifyHmacSha256(ByteSpan key, ByteSpan message, ByteSpan mac);

}  // namespace globe

#endif  // SRC_UTIL_HMAC_H_
