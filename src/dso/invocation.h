// Marshalled method invocations.
//
// Paper §3.3: "both the replication subobject and the communication subobject operate
// only on opaque invocation messages in which method identifiers and parameters have
// been encoded." This is that message. The one property replication protocols are
// allowed to see is whether the invocation modifies state — that is what routes reads
// to local replicas and writes to masters — and replicas learn it from their
// semantics subobject (SemanticsObject::IsReadOnly), not from the message.
//
// `read_only` is the caller's intent. It picks the method a thin proxy sends on
// (dso.reader for reads, dso.invoke for writes) and the retry policy (writes carry
// a retry budget, reads a single attempt). Replicas do not trust it: a write
// flagged read-only still meets the write guard, or is refused on dso.reader.

#ifndef SRC_DSO_INVOCATION_H_
#define SRC_DSO_INVOCATION_H_

#include <string>
#include <tuple>

#include "src/util/bytes.h"

namespace globe::dso {

struct Invocation {
  std::string method;
  Bytes args;
  bool read_only = false;

  static constexpr auto kWireFields =
      std::tuple(&Invocation::method, &Invocation::args, &Invocation::read_only);
};

}  // namespace globe::dso

#endif  // SRC_DSO_INVOCATION_H_
