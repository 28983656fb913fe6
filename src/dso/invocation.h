// Marshalled method invocations and the declarations they are marshalled by.
//
// Paper §3.3: "both the replication subobject and the communication subobject operate
// only on opaque invocation messages in which method identifiers and parameters have
// been encoded." Invocation is that message. The one property replication protocols
// are allowed to see is whether the invocation modifies state — that is what routes
// reads to local replicas and writes to masters — and replicas learn it from their
// semantics subobject's method table (SemanticsObject::IsReadOnly), not from the
// message.
//
// `read_only` is the caller's intent, set from the same declaration the replica
// classifies by. It picks the method a thin proxy sends on (dso.reader for reads,
// dso.invoke for writes) and the retry policy (writes carry a retry budget, reads
// a single attempt). Replicas do not trust it: a write flagged read-only still
// meets the write guard, or is refused on dso.reader.

#ifndef SRC_DSO_INVOCATION_H_
#define SRC_DSO_INVOCATION_H_

#include <functional>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "src/sim/rpc.h"
#include "src/util/bytes.h"
#include "src/util/wire.h"

namespace globe::dso {

struct Invocation {
  std::string method;
  Bytes args;
  bool read_only = false;

  static constexpr auto kWireFields =
      std::tuple(&Invocation::method, &Invocation::args, &Invocation::read_only);
};

enum class Access { kRead, kWrite };

// One semantics method, declared once for both ends of an invocation: its name,
// whether it modifies state, and its argument and result types. Arguments name
// their fields in a kWireFields list (src/util/wire.h), so every count they
// carry is bounds-checked on decode; so do results, except a Bytes result,
// which passes through raw (sim::wire_internal's rule). Methods without
// arguments or results use sim::EmptyMessage.
//
//   inline constexpr dso::Method<PathArgs, Bytes> kGetFileContents{
//       "pkg.getFileContents", dso::Access::kRead};
//   bound->Call(kGetFileContents, {"bin/hello"}, [](Result<Bytes> r) { ... });
//   Handle(kGetFileContents, [this](PathArgs args) -> Result<Bytes> { ... });
//
// Callers go through BoundObject::Call, semantics objects register their
// handlers with SemanticsObject::Handle, and replicas classify by the same
// declaration's access.
template <typename Args, typename Res>
class Method {
  static_assert(wire::Message<Args>);
  static_assert(wire::Message<Res> || std::is_same_v<Res, Bytes>);

 public:
  using Callback = std::function<void(Result<Res>)>;

  constexpr Method(const char* name, Access access) : name_(name), access_(access) {}

  const char* name() const { return name_; }
  bool read_only() const { return access_ == Access::kRead; }

  Invocation Marshal(const Args& args) const {
    return Invocation{name_, wire::Encode(args), read_only()};
  }

  // The typed result of an invocation's answer; a Bytes result is moved, not
  // copied.
  static Result<Res> Unmarshal(Result<Bytes> result) {
    if (!result.ok()) {
      return result.status();
    }
    if constexpr (std::is_same_v<Res, Bytes>) {
      return std::move(*result);
    } else {
      return wire::Decode<Res>(*result);
    }
  }

 private:
  const char* name_;
  Access access_;
};

}  // namespace globe::dso

#endif  // SRC_DSO_INVOCATION_H_
