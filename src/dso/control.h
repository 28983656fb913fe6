// Control subobject: bridges user-defined method calls and the standard replication
// interface (paper §3.3): "The control subobject takes care of invocations from
// client processes ... to bridge the gap between the user-defined interfaces of the
// semantics subobject, and the standard interfaces of the replication subobject."
//
// A user-defined method is a dso::Method declaration (src/dso/invocation.h). Call
// marshals its typed arguments into an invocation whose read-only flag comes from
// the declaration, hands it to the replication subobject, and reads the typed
// result back through the same declaration.

#ifndef SRC_DSO_CONTROL_H_
#define SRC_DSO_CONTROL_H_

#include <type_traits>

#include "src/dso/subobjects.h"

namespace globe::dso {

class ControlObject {
 public:
  explicit ControlObject(ReplicationObject* replication) : replication_(replication) {}

  template <typename Args, typename Res>
  void Call(const Method<Args, Res>& method, const std::type_identity_t<Args>& args,
            typename Method<Args, Res>::Callback done) {
    Invoke(method.Marshal(args), [done = std::move(done)](Result<Bytes> result) {
      done(Method<Args, Res>::Unmarshal(std::move(result)));
    });
  }

  // Sends an invocation as it was marshalled.
  void Invoke(const Invocation& invocation, InvokeCallback done) {
    replication_->Invoke(invocation, std::move(done));
  }

 private:
  ReplicationObject* replication_;
};

}  // namespace globe::dso

#endif  // SRC_DSO_CONTROL_H_
