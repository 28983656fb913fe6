// Byte-level serialization primitives.
//
// Globe's replication and communication subobjects operate on *opaque invocation
// messages*: method identifiers and parameters encoded into byte blobs (paper §3.3).
// This header provides the bounded writer/reader pair every wire format in this
// repository is built from; typed messages reach it through the field-list
// codec in src/util/wire.h. Encodings:
//   - fixed-width integers are little-endian
//   - varints are LEB128 (7 bits per byte, high bit = continuation)
//   - strings and byte blobs are varint length followed by raw bytes

#ifndef SRC_UTIL_SERIAL_H_
#define SRC_UTIL_SERIAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/util/bytes.h"
#include "src/util/status.h"

namespace globe {

// Appends values to an owned byte buffer. Never fails; growth is amortized.
//
// Reusable-buffer mode: Reset() empties the writer but keeps its capacity, so a
// long-lived scratch writer (the Channel's per-call serializer, a server's
// response writer) stops allocating once it reaches its high-water mark. Frame
// the bytes with span() and hand them to Transport::Send, which consumes them
// before returning; Take() is for callers that need to keep the buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteVarint(uint64_t v);
  void WriteBytes(ByteSpan bytes);              // raw, no length prefix
  void WriteLengthPrefixed(ByteSpan bytes);     // varint length + raw bytes
  void WriteString(std::string_view s);         // varint length + raw bytes
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }

  const Bytes& data() const { return buffer_; }
  ByteSpan span() const { return buffer_; }
  Bytes Take() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }
  size_t capacity() const { return buffer_.capacity(); }

  // Clears the contents, retaining capacity for reuse.
  void Reset() { buffer_.clear(); }
  // Makes room for `bytes` more, so a writer that knows its total grows once.
  void Reserve(size_t bytes) { buffer_.reserve(buffer_.size() + bytes); }

 private:
  Bytes buffer_;
};

// Reads values from a non-owned byte span with strict bounds checking. Every read
// returns OUT_OF_RANGE on truncation — malformed network input must never crash a
// service (paper §6.1: availability despite bogus protocol messages).
class ByteReader {
 public:
  explicit ByteReader(ByteSpan data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<uint64_t> ReadVarint();
  Result<Bytes> ReadBytes(size_t n);       // raw
  Result<Bytes> ReadLengthPrefixed();      // varint length + raw
  Result<std::string> ReadString();
  Result<bool> ReadBool();

  // Zero-copy variants: the returned view aliases the span this reader was
  // constructed over, so it is valid only while that buffer is. The RPC hot
  // path parses frames with these — one receive buffer, no per-field copies —
  // and copies exactly the fields that must outlive the delivery.
  Result<ByteSpan> ReadSpan(size_t n);            // raw view
  Result<ByteSpan> ReadLengthPrefixedView();      // varint length + raw view
  Result<std::string_view> ReadStringView();      // varint length + raw view

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t position() const { return pos_; }

 private:
  ByteSpan data_;
  size_t pos_ = 0;
};

}  // namespace globe

#endif  // SRC_UTIL_SERIAL_H_
