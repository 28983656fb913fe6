// Byte-buffer aliases and hex helpers.
//
// All Globe wire formats ("opaque invocation messages", GLS records, DNS messages) are
// byte vectors: typed RPC messages are encoded by the field-list codec in
// src/util/wire.h, the rest by hand with the writer/reader in src/util/serial.h.

#ifndef SRC_UTIL_BYTES_H_
#define SRC_UTIL_BYTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace globe {

using Bytes = std::vector<uint8_t>;
using ByteSpan = std::span<const uint8_t>;

// Converts a string's characters to bytes verbatim (no encoding applied).
Bytes ToBytes(std::string_view s);

// Materialises a view as owned bytes — the explicit copy at an ownership
// boundary, for a parsed wire field that must outlive its receive buffer.
inline Bytes ToBytes(ByteSpan bytes) { return Bytes(bytes.begin(), bytes.end()); }

// Converts bytes back to a std::string verbatim.
std::string ToString(ByteSpan bytes);

// Lowercase hex encoding, two characters per byte.
std::string HexEncode(ByteSpan bytes);

// Parses a hex string. Returns false on odd length or non-hex characters.
bool HexDecode(std::string_view hex, Bytes* out);

// Constant-time byte comparison: used for MAC verification so the comparison itself
// does not leak a timing side channel (mirrors real TLS/TSIG implementations).
bool ConstantTimeEqual(ByteSpan a, ByteSpan b);

}  // namespace globe

#endif  // SRC_UTIL_BYTES_H_
