// One codec for every typed wire message.
//
// A message names its fields once, in wire order, as a tuple of member
// pointers:
//
//   struct PushAck {
//     bool accepted = true;
//     uint64_t epoch = 0;
//     static constexpr auto kWireFields =
//         std::tuple(&PushAck::accepted, &PushAck::epoch);
//   };
//
// and wire::Encode / wire::Decode derive its byte layout from the field types;
// wire::Put / wire::Read do the same for a value inside a hand-written format
// (a checkpoint, a zone transfer). The layout, built from src/util/serial.h:
//   - integers: fixed-width little-endian (signed ones as their unsigned bits)
//   - bool: one byte, 0 or 1
//   - enums: their underlying integer
//   - std::string and Bytes: varint length, then the raw bytes
//   - std::array<uint8_t, N>: the N raw bytes
//   - std::vector: varint count, then the items
//   - std::pair: first, then second
//   - wire::Nested<T>: T's encoding behind a varint length
//   - a struct with kWireFields: its fields, inline
//
// Decoding is the ownership boundary: strings and byte fields are read as
// views into the payload and copied once, into the message. Every vector
// count a message carries is checked here, before anything is reserved: one
// above kMaxItems, or one promising more items than the remaining bytes hold
// at the item's smallest encoding, is InvalidArgument, so a peer's count field
// is never trusted (paper §6.1: servers stay available under bogus messages).
// Bytes after the last field are ignored.

#ifndef SRC_UTIL_WIRE_H_
#define SRC_UTIL_WIRE_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/util/bytes.h"
#include "src/util/serial.h"
#include "src/util/status.h"

namespace globe::wire {

// The most items one wire vector may hold.
inline constexpr uint64_t kMaxItems = 100000;

template <typename T>
concept Message = requires { T::kWireFields; };

// A message carried length-prefixed inside another.
template <typename T>
struct Nested {
  T value;
};

namespace internal {

template <typename T, template <typename...> class Template>
inline constexpr bool kIs = false;
template <template <typename...> class Template, typename... Args>
inline constexpr bool kIs<Template<Args...>, Template> = true;

template <typename T>
inline constexpr bool kIsByteArray = false;
template <size_t N>
inline constexpr bool kIsByteArray<std::array<uint8_t, N>> = true;

template <typename T>
inline constexpr bool kUnsupported = false;

// The fewest bytes a T encodes to: what a count of Ts is checked against.
template <typename T>
constexpr size_t MinBytes() {
  if constexpr (Message<T>) {
    return std::apply(
        [](auto... field) {
          return (size_t{0} + ... +
                  MinBytes<std::remove_cvref_t<decltype(std::declval<T&>().*field)>>());
        },
        T::kWireFields);
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (kIsByteArray<T>) {
    return std::tuple_size_v<T>;
  } else if constexpr (kIs<T, std::pair>) {
    return MinBytes<typename T::first_type>() + MinBytes<typename T::second_type>();
  } else {
    return 1;  // a varint length or count
  }
}

}  // namespace internal

template <typename T>
void Put(ByteWriter* w, const T& value);

// Encodes the listed fields of `value`, in order.
template <typename T, typename... Fields>
void PutFields(ByteWriter* w, const T& value, const std::tuple<Fields...>& fields) {
  std::apply([&](auto... field) { (Put(w, value.*field), ...); }, fields);
}

// Appends `value`'s encoding.
template <typename T>
void Put(ByteWriter* w, const T& value) {
  if constexpr (Message<T>) {
    PutFields(w, value, T::kWireFields);
  } else if constexpr (std::is_same_v<T, bool>) {
    w->WriteBool(value);
  } else if constexpr (std::is_enum_v<T>) {
    Put(w, static_cast<std::underlying_type_t<T>>(value));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    w->WriteU8(static_cast<uint8_t>(value));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) {
    w->WriteU16(static_cast<uint16_t>(value));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    w->WriteU32(static_cast<uint32_t>(value));
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
    w->WriteU64(static_cast<uint64_t>(value));
  } else if constexpr (std::is_same_v<T, std::string>) {
    w->WriteString(value);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    w->WriteLengthPrefixed(value);
  } else if constexpr (internal::kIsByteArray<T>) {
    w->WriteBytes(value);
  } else if constexpr (internal::kIs<T, std::vector>) {
    w->WriteVarint(value.size());
    for (const auto& item : value) {
      Put(w, item);
    }
  } else if constexpr (internal::kIs<T, std::pair>) {
    Put(w, value.first);
    Put(w, value.second);
  } else if constexpr (internal::kIs<T, Nested>) {
    ByteWriter inner;
    Put(&inner, value.value);
    w->WriteLengthPrefixed(inner.span());
  } else {
    static_assert(internal::kUnsupported<T>, "no wire layout for this type");
  }
}

namespace internal {

// Reads a count of items whose smallest encoding is `min_item_bytes`: the one
// place a peer-supplied count is checked, before anything is allocated for it.
inline Result<size_t> ReadCount(ByteReader* r, size_t min_item_bytes) {
  ASSIGN_OR_RETURN(uint64_t count, r->ReadVarint());
  if (count > kMaxItems || count > r->remaining() / min_item_bytes) {
    return InvalidArgument("implausible wire count");
  }
  return static_cast<size_t>(count);
}

// Decodes a value in place; `out` is unspecified on error.
template <typename T>
Status ReadInto(ByteReader* r, T* out) {
  if constexpr (Message<T>) {
    Status status = OkStatus();
    std::apply(
        [&](auto... field) {
          (void)((status = ReadInto(r, &(out->*field))).ok() && ...);
        },
        T::kWireFields);
    return status;
  } else if constexpr (std::is_same_v<T, bool>) {
    ASSIGN_OR_RETURN(*out, r->ReadBool());
  } else if constexpr (std::is_enum_v<T>) {
    std::underlying_type_t<T> raw{};
    RETURN_IF_ERROR(ReadInto(r, &raw));
    *out = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
    ASSIGN_OR_RETURN(*out, r->ReadU8());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 2) {
    ASSIGN_OR_RETURN(*out, r->ReadU16());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 4) {
    ASSIGN_OR_RETURN(*out, r->ReadU32());
  } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
    ASSIGN_OR_RETURN(*out, r->ReadU64());
  } else if constexpr (std::is_same_v<T, std::string>) {
    ASSIGN_OR_RETURN(std::string_view view, r->ReadStringView());
    out->assign(view);
  } else if constexpr (std::is_same_v<T, Bytes>) {
    ASSIGN_OR_RETURN(ByteSpan view, r->ReadLengthPrefixedView());
    out->assign(view.begin(), view.end());
  } else if constexpr (kIsByteArray<T>) {
    ASSIGN_OR_RETURN(ByteSpan view, r->ReadSpan(out->size()));
    std::copy(view.begin(), view.end(), out->begin());
  } else if constexpr (kIs<T, std::vector>) {
    using Item = typename T::value_type;
    static_assert(MinBytes<Item>() > 0);
    ASSIGN_OR_RETURN(size_t count, ReadCount(r, MinBytes<Item>()));
    out->reserve(count);
    for (size_t i = 0; i < count; ++i) {
      RETURN_IF_ERROR(ReadInto(r, &out->emplace_back()));
    }
  } else if constexpr (kIs<T, std::pair>) {
    RETURN_IF_ERROR(ReadInto(r, &out->first));
    RETURN_IF_ERROR(ReadInto(r, &out->second));
  } else if constexpr (kIs<T, Nested>) {
    ASSIGN_OR_RETURN(ByteSpan view, r->ReadLengthPrefixedView());
    ByteReader inner(view);
    RETURN_IF_ERROR(ReadInto(&inner, &out->value));
  } else {
    static_assert(kUnsupported<T>, "no wire layout for this type");
  }
  return OkStatus();
}

}  // namespace internal

// Decodes one T at the reader's position.
template <typename T>
Result<T> Read(ByteReader* r) {
  T value{};
  RETURN_IF_ERROR(internal::ReadInto(r, &value));
  return value;
}

// A whole message as one payload.
template <Message T>
Bytes Encode(const T& message) {
  ByteWriter w;
  Put(&w, message);
  return w.Take();
}

template <Message T>
Result<T> Decode(ByteSpan data) {
  ByteReader r(data);
  return Read<T>(&r);
}

}  // namespace globe::wire

#endif  // SRC_UTIL_WIRE_H_
