// The SHA-256 block functions behind Sha256, exposed so tests can run the same
// vectors through each of them. Nothing outside src/util/sha256.cc and the tests
// includes this header; it is a test seam, not a configuration point.

#ifndef SRC_UTIL_SHA256_INTERNAL_H_
#define SRC_UTIL_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace globe::sha256_internal {

// Compresses `count` consecutive 64-byte blocks into the eight state words
// (FIPS 180-4 §6.2.2, steps 1-4, once per block).
using BlockFunction = void (*)(uint32_t* state, const uint8_t* blocks, size_t count);

// Plain C++; runs on every CPU and is the reference the accelerated one is tested
// against.
void CompressPortable(uint32_t* state, const uint8_t* blocks, size_t count);

// The x86 SHA-extensions block function, or nullptr when this CPU or this build
// cannot run it.
BlockFunction AcceleratedBlockFunction();

// Empty when AcceleratedBlockFunction() is usable; otherwise names the first
// CPUID feature it needs that this CPU lacks.
std::string_view MissingCpuFeature();

// The function Sha256 compresses with: chosen from CPUID on first use.
BlockFunction ActiveBlockFunction();

// Makes Sha256 compress with `fn` until destruction, then restores the previous
// choice. Hold it only while no other thread hashes.
class ScopedBlockFunction {
 public:
  explicit ScopedBlockFunction(BlockFunction fn);
  ~ScopedBlockFunction();
  ScopedBlockFunction(const ScopedBlockFunction&) = delete;
  ScopedBlockFunction& operator=(const ScopedBlockFunction&) = delete;

 private:
  BlockFunction saved_;
};

}  // namespace globe::sha256_internal

#endif  // SRC_UTIL_SHA256_INTERNAL_H_
