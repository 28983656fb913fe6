#include "src/util/sha256.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/util/sha256_internal.h"

#if defined(__x86_64__) || defined(__i386__)
#define GLOBE_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace globe {

namespace {

constexpr std::array<uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
    0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
    0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
    0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
    0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
    0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
};

inline uint32_t RotR(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef GLOBE_SHA256_X86
// The block function on the SHA extensions. sha256rnds2 runs two rounds on a
// state split across two registers as {A,B,E,F} and {C,D,G,H}; each loop step
// below runs four rounds and, from step 4 on, first derives its four schedule
// words W[4s..4s+3] from the previous sixteen with sha256msg1/sha256msg2.
__attribute__((target("sha,ssse3,sse4.1"))) void CompressShaNi(uint32_t* state,
                                                                const uint8_t* blocks,
                                                                size_t count) {
  // Message words are big-endian: reverse the bytes of each 32-bit lane.
  const __m128i byte_swap = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  // Lanes are written most significant first: state[0..3] loads as DCBA.
  __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)),
                                   0xB1);
  __m128i efgh =
      _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; count > 0; --count, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[s % 4] holds schedule words W[4s..4s+3] while step s runs.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)), byte_swap);
    }
    // Fully unrolled, the schedule words stay in registers.
#pragma GCC unroll 16
    for (int step = 0; step < 16; ++step) {
      if (step >= 4) {
        // W[t..t+3] = sigma1 terms + W[t-7..t-4] + sigma0 terms + W[t-16..t-13].
        w[step & 3] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[step & 3], w[(step + 1) & 3]),
                          _mm_alignr_epi8(w[(step + 3) & 3], w[(step + 2) & 3], 4)),
            w[(step + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(
          w[step & 3],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * step])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

// Function-local, so a hash taken during static initialisation already sees
// the CPU's choice.
sha256_internal::BlockFunction& ActiveSlot() {
  static sha256_internal::BlockFunction active =
      sha256_internal::AcceleratedBlockFunction() != nullptr
          ? sha256_internal::AcceleratedBlockFunction()
          : sha256_internal::CompressPortable;
  return active;
}

}  // namespace

namespace sha256_internal {

void CompressPortable(uint32_t* state, const uint8_t* blocks, size_t count) {
  for (; count > 0; --count, blocks += Sha256::kBlockSize) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<uint32_t>(blocks[4 * i]) << 24 |
             static_cast<uint32_t>(blocks[4 * i + 1]) << 16 |
             static_cast<uint32_t>(blocks[4 * i + 2]) << 8 |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      uint32_t s0 = RotR(w[i - 15], 7) ^ RotR(w[i - 15], 18) ^ (w[i - 15] >> 3);
      uint32_t s1 = RotR(w[i - 2], 17) ^ RotR(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      uint32_t s1 = RotR(e, 6) ^ RotR(e, 11) ^ RotR(e, 25);
      uint32_t ch = (e & f) ^ (~e & g);
      uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      uint32_t s0 = RotR(a, 2) ^ RotR(a, 13) ^ RotR(a, 22);
      uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

std::string_view MissingCpuFeature() {
  static const std::string_view missing = []() -> std::string_view {
#ifdef GLOBE_SHA256_X86
    unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx) || !(ecx & bit_SSSE3)) {
      return "SSSE3 (CPUID.1:ECX[9])";
    }
    if (!(ecx & bit_SSE4_1)) {
      return "SSE4.1 (CPUID.1:ECX[19])";
    }
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) || !(ebx & bit_SHA)) {
      return "SHA (CPUID.7.0:EBX[29])";
    }
    return {};
#else
    return "x86 SHA extensions (not an x86 build)";
#endif
  }();
  return missing;
}

BlockFunction AcceleratedBlockFunction() {
#ifdef GLOBE_SHA256_X86
  if (MissingCpuFeature().empty()) {
    return CompressShaNi;
  }
#endif
  return nullptr;
}

BlockFunction ActiveBlockFunction() { return ActiveSlot(); }

ScopedBlockFunction::ScopedBlockFunction(BlockFunction fn) : saved_(ActiveSlot()) {
  ActiveSlot() = fn;
}

ScopedBlockFunction::~ScopedBlockFunction() { ActiveSlot() = saved_; }

}  // namespace sha256_internal

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::Update(ByteSpan data) {
  assert(!finished_ && "Update after Finish");
  if (data.empty()) {
    return;
  }
  total_len_ += data.size();
  const uint8_t* next = data.data();
  size_t left = data.size();
  if (buffer_len_ > 0) {
    size_t take = std::min(kBlockSize - buffer_len_, left);
    std::memcpy(buffer_.data() + buffer_len_, next, take);
    buffer_len_ += take;
    next += take;
    left -= take;
    if (buffer_len_ < kBlockSize) {
      return;
    }
    ActiveSlot()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Every whole block in one call, so the state stays in registers across them.
  if (size_t blocks = left / kBlockSize; blocks > 0) {
    ActiveSlot()(state_.data(), next, blocks);
    next += blocks * kBlockSize;
    left -= blocks * kBlockSize;
  }
  if (left > 0) {
    std::memcpy(buffer_.data(), next, left);
    buffer_len_ = left;
  }
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Finish() {
  assert(!finished_ && "Finish called twice");
  finished_ = true;

  // Padding: 0x80, zeros, 8-byte big-endian bit length; one block, or two when
  // the length no longer fits behind the 0x80.
  const uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > kBlockSize - 8) {
    std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - buffer_len_);
    ActiveSlot()(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, kBlockSize - 8 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[kBlockSize - 8 + i] = static_cast<uint8_t>(bit_len >> (56 - 8 * i));
  }
  ActiveSlot()(state_.data(), buffer_.data(), 1);

  std::array<uint8_t, kDigestSize> digest;
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

std::array<uint8_t, Sha256::kDigestSize> Sha256::Digest(ByteSpan data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::DigestBytes(ByteSpan data) {
  auto d = Digest(data);
  return Bytes(d.begin(), d.end());
}

std::string Sha256::HexDigest(ByteSpan data) {
  auto d = Digest(data);
  return HexEncode(ByteSpan(d.data(), d.size()));
}

}  // namespace globe
