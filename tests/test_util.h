// Shared helpers for the Globe test suites: a simple replicable semantics object and
// synchronous wrappers around the async APIs.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "src/dso/subobjects.h"

namespace globe::testutil {

// A key -> string map object; the minimal stand-in for a package DSO.
//   put(key, value)    write
//   get(key) -> value  read-only
class KvObject : public dso::SemanticsObject {
 public:
  static constexpr uint16_t kTypeId = 7;

  Result<Bytes> Invoke(const dso::Invocation& invocation) override {
    ByteReader r(invocation.args);
    if (invocation.method == "put") {
      ASSIGN_OR_RETURN(std::string key, r.ReadString());
      ASSIGN_OR_RETURN(std::string value, r.ReadString());
      entries_[key] = value;
      return Bytes{};
    }
    if (invocation.method == "get") {
      ASSIGN_OR_RETURN(std::string key, r.ReadString());
      auto it = entries_.find(key);
      if (it == entries_.end()) {
        return NotFound("no such key: " + key);
      }
      ByteWriter w;
      w.WriteString(it->second);
      return w.Take();
    }
    return NotFound("no such method: " + invocation.method);
  }

  bool IsReadOnly(std::string_view method) const override { return method == "get"; }

  Bytes GetState() const override {
    ByteWriter w;
    w.WriteVarint(entries_.size());
    for (const auto& [key, value] : entries_) {
      w.WriteString(key);
      w.WriteString(value);
    }
    return w.Take();
  }

  Status SetState(ByteSpan state) override {
    ByteReader r(state);
    std::map<std::string, std::string> entries;
    ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      ASSIGN_OR_RETURN(std::string key, r.ReadString());
      ASSIGN_OR_RETURN(std::string value, r.ReadString());
      entries[key] = value;
    }
    entries_ = std::move(entries);
    return OkStatus();
  }

  std::unique_ptr<dso::SemanticsObject> CloneEmpty() const override {
    return std::make_unique<KvObject>();
  }
  uint16_t type_id() const override { return kTypeId; }

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

inline dso::Invocation KvPut(const std::string& key, const std::string& value) {
  ByteWriter w;
  w.WriteString(key);
  w.WriteString(value);
  return dso::Invocation{"put", w.Take(), /*read_only=*/false};
}

inline dso::Invocation KvGet(const std::string& key) {
  ByteWriter w;
  w.WriteString(key);
  return dso::Invocation{"get", w.Take(), /*read_only=*/true};
}

}  // namespace globe::testutil

#endif  // TESTS_TEST_UTIL_H_
