// Shared helpers for the Globe test suites: a simple replicable semantics object and
// synchronous wrappers around the async APIs.

#ifndef TESTS_TEST_UTIL_H_
#define TESTS_TEST_UTIL_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>

#include "src/dso/subobjects.h"

namespace globe::testutil {

// A key -> string map object; the minimal stand-in for a package DSO.
struct KvEntry {
  std::string key;
  std::string value;

  static constexpr auto kWireFields = std::tuple(&KvEntry::key, &KvEntry::value);
};

struct KvKey {
  std::string key;

  static constexpr auto kWireFields = std::tuple(&KvKey::key);
};

struct KvValue {
  std::string value;

  static constexpr auto kWireFields = std::tuple(&KvValue::value);
};

inline constexpr dso::Method<KvEntry, sim::EmptyMessage> kKvPut{"put",
                                                                dso::Access::kWrite};
inline constexpr dso::Method<KvKey, KvValue> kKvGet{"get", dso::Access::kRead};

class KvObject : public dso::SemanticsObject {
 public:
  static constexpr uint16_t kTypeId = 7;

  KvObject() {
    Handle(kKvPut, [this](KvEntry entry) -> Status {
      entries_[entry.key] = std::move(entry.value);
      return OkStatus();
    });
    Handle(kKvGet, [this](const KvKey& args) -> Result<KvValue> {
      auto it = entries_.find(args.key);
      if (it == entries_.end()) {
        return NotFound("no such key: " + args.key);
      }
      return KvValue{it->second};
    });
  }

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
  return kKvPut.Marshal({key, value});
}

inline dso::Invocation KvGet(const std::string& key) { return kKvGet.Marshal({key}); }

}  // namespace globe::testutil

#endif  // TESTS_TEST_UTIL_H_
