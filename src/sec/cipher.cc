#include "src/sec/cipher.h"

#include <algorithm>

#include "src/util/sha256.h"

namespace globe::sec {

namespace {

// Little-endian, the layout ByteWriter::WriteU64 gives.
void StoreU64(uint64_t v, uint8_t* out) {
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

void ApplyKeystream(ByteSpan key, uint64_t nonce, Bytes* data) {
  // The key is absorbed once; each block hashes on from a copy of that state.
  Sha256 keyed;
  keyed.Update(key);
  uint8_t nonce_counter[16];
  StoreU64(nonce, nonce_counter);
  uint64_t counter = 0;
  for (size_t offset = 0; offset < data->size(); offset += Sha256::kDigestSize) {
    StoreU64(counter++, nonce_counter + 8);
    Sha256 block = keyed;
    block.Update(nonce_counter);
    auto keystream = block.Finish();
    size_t n = std::min(keystream.size(), data->size() - offset);
    for (size_t i = 0; i < n; ++i) {
      (*data)[offset + i] ^= keystream[i];
    }
  }
}

}  // namespace globe::sec
