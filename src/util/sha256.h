// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used for: content hashes of package files (integrity, paper §6.1), object-identifier
// derivation in the GLS, and as the compression function under HMAC for the simulated
// TLS channels and DNS TSIG records.
//
// The compression function takes a run of whole 64-byte blocks per call, and one
// of two implementations runs it:
//   - on an x86 CPU whose CPUID reports the SHA extensions (leaf 7 EBX bit 29)
//     together with SSSE3 and SSE4.1, one built on sha256rnds2/sha256msg1/
//     sha256msg2 (Gulley et al., "Intel SHA Extensions", 2013);
//   - on every other CPU, a portable C++ one.
// The choice is made once, on first use, from CPUID; no build flag, option or
// environment variable selects it, and the accelerated function is compiled
// for its instructions alone, so one binary runs on either kind of CPU. Both
// compute FIPS 180-4 exactly: every digest, MAC and keystream byte is the same
// on both paths (tests/util_test.cc checks them against each other).

#ifndef SRC_UTIL_SHA256_H_
#define SRC_UTIL_SHA256_H_

#include <array>
#include <cstdint>

#include "src/util/bytes.h"

namespace globe {

class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;
  static constexpr size_t kBlockSize = 64;

  Sha256();

  // Streaming interface: feed any number of chunks, then Finish() once.
  void Update(ByteSpan data);
  std::array<uint8_t, kDigestSize> Finish();

  // One-shot convenience.
  static std::array<uint8_t, kDigestSize> Digest(ByteSpan data);
  static Bytes DigestBytes(ByteSpan data);
  static std::string HexDigest(ByteSpan data);

 private:
  std::array<uint32_t, 8> state_;
  std::array<uint8_t, kBlockSize> buffer_;
  size_t buffer_len_ = 0;
  uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace globe

#endif  // SRC_UTIL_SHA256_H_
