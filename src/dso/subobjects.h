// The subobject interfaces of a Globe local representative (paper §3.3, Figure 1b).
//
// A local representative of a distributed shared object is composed of four
// subobjects:
//   - Semantics subobject: user-defined; implements the object's actual methods on
//     local state, ignorant of distribution and replication.
//   - Communication subobject: system-provided; moves opaque byte messages between
//     address spaces (src/dso/comm.h).
//   - Replication subobject: keeps replica state consistent under a per-object
//     protocol; has STANDARD interfaces so protocols are interchangeable per object.
//   - Control subobject: bridges user method calls to the replication subobject by
//     marshalling them into invocation messages (src/dso/control.h).

#ifndef SRC_DSO_SUBOBJECTS_H_
#define SRC_DSO_SUBOBJECTS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/dso/invocation.h"
#include "src/gls/oid.h"
#include "src/sim/endpoint.h"
#include "src/util/status.h"

namespace globe::dso {

class ReplicaGroup;

// One observed access at a serving replica, reported to the hosting server's
// telemetry layer (src/ctl). Reads are recorded where they are served, writes
// only where they execute (master/sequencer), so rates are never double-counted
// across a replica group. `client` is the node the invocation originated from —
// the controller's geography signal.
struct AccessSample {
  bool is_write = false;
  size_t bytes = 0;  // response bytes for reads, argument bytes for writes
  sim::NodeId client = sim::kNoNode;
};

// Installed by the hosting server (GOS) on replicas it wants telemetry from.
// Fired synchronously on the serving path — implementations must be cheap.
using AccessHook = std::function<void(const AccessSample&)>;

// User-defined primitive object implementing the DSO's methods. A package DSO's
// semantics subobject implements addFile / listContents / getFileContents etc.
// (src/gdn/package.h). A subclass registers one handler per declared method
// (see dso::Method) from its constructor; the table of those handlers is the
// object's interface: Invoke dispatches through it and IsReadOnly answers from
// it. Implementations must be deterministic: the active replication protocol
// applies the same invocation at every replica.
class SemanticsObject {
 public:
  virtual ~SemanticsObject() = default;
  // Handlers capture `this`.
  SemanticsObject(const SemanticsObject&) = delete;
  SemanticsObject& operator=(const SemanticsObject&) = delete;

  // Executes one marshalled invocation against local state: arguments that do
  // not decode as the method's declared type are refused before its handler
  // runs, and a method without a handler is NotFound.
  Result<Bytes> Invoke(const Invocation& invocation) {
    const Handler* handler = Find(invocation.method);
    if (handler == nullptr) {
      return NotFound("no such method: " + invocation.method);
    }
    return handler->run(invocation.args);
  }

  // Whether `method` leaves the state unchanged, as its declaration says.
  // Replicas classify every invocation with this, never with the caller's
  // Invocation::read_only: a read is served where it lands, anything else —
  // unknown methods included — takes the write guard and the write path.
  bool IsReadOnly(std::string_view method) const {
    const Handler* handler = Find(method);
    return handler != nullptr && handler->read_only;
  }

  // Full-state marshalling: used to initialize new replicas, to push state in the
  // master/slave protocol, and by the GOS persistence machinery.
  virtual Bytes GetState() const = 0;
  virtual Status SetState(ByteSpan state) = 0;

  // A fresh, empty instance of the same type (the "remote class loading" stand-in:
  // the implementation repository clones a registered prototype).
  virtual std::unique_ptr<SemanticsObject> CloneEmpty() const = 0;

  // Type identifier resolved through the implementation repository when binding.
  virtual uint16_t type_id() const = 0;

 protected:
  SemanticsObject() = default;

  // Registers the handler of `method`. It takes the decoded arguments and
  // returns Result<Res>, or a Status for a method whose result is
  // sim::EmptyMessage.
  template <typename Args, typename Res, typename Fn>
  void Handle(const Method<Args, Res>& method, Fn fn) {
    handlers_.push_back(Handler{
        method.name(), method.read_only(),
        [fn = std::move(fn)](ByteSpan data) -> Result<Bytes> {
          ASSIGN_OR_RETURN(Args args, wire::Decode<Args>(data));
          if constexpr (std::is_same_v<Res, sim::EmptyMessage>) {
            RETURN_IF_ERROR(fn(std::move(args)));
            return Bytes{};
          } else {
            ASSIGN_OR_RETURN(Res result, fn(std::move(args)));
            return sim::wire_internal::EncodeMessage(std::move(result));
          }
        }});
  }

 private:
  struct Handler {
    std::string_view method;
    bool read_only = false;
    std::function<Result<Bytes>(ByteSpan)> run;
  };

  const Handler* Find(std::string_view method) const {
    for (const Handler& handler : handlers_) {
      if (handler.method == method) {
        return &handler;
      }
    }
    return nullptr;
  }

  std::vector<Handler> handlers_;
};

using InvokeCallback = std::function<void(Result<Bytes>)>;

// Standard interface of every replication subobject. The control subobject calls
// Invoke; the protocol decides whether to execute locally, forward to a master,
// broadcast, etc.
class ReplicationObject {
 public:
  virtual ~ReplicationObject() = default;

  virtual void Invoke(const Invocation& invocation, InvokeCallback done) = 0;

  // Protocol-visible version of the local state: how many writes the local replica
  // has applied (or, for stateless proxies, has observed). Benchmarks use the gap
  // between replica versions as the staleness metric.
  virtual uint64_t version() const = 0;

  // Asynchronous startup: replicas that must fetch initial state (slaves, caches)
  // complete their registration here. Must be called exactly once before Invoke.
  virtual void Start(std::function<void(Status)> done) { done(OkStatus()); }

  // Graceful teardown (deregistration with peers).
  virtual void Shutdown(std::function<void(Status)> done) { done(OkStatus()); }

  // The address other local representatives can contact this one on, if it accepts
  // peer traffic (replicas do; pure client proxies return nullopt).
  virtual std::optional<gls::ContactAddress> contact_address() const {
    return std::nullopt;
  }

  // The endpoint this representative follows, as dso.master_endpoint answers
  // it: its own while it is the master, the master's while it is a secondary.
  // Pure client proxies follow nothing and return {kNoNode, 0}.
  virtual sim::Endpoint master_endpoint() const { return {}; }

  // The local semantics subobject, if this representative holds one (replicas do;
  // thin proxies return nullptr). Used by the GOS persistence machinery.
  virtual SemanticsObject* semantics() { return nullptr; }

  // Restores the version counter after a GOS restart so replica protocols resume
  // where the checkpoint left off.
  virtual void set_version(uint64_t) {}

  // The replica group's membership epoch (0 for protocols/proxies without one).
  // Checkpointed alongside the version so a restarted master resumes — or
  // discovers it lost — its mastership instead of forgetting it ever held it.
  virtual uint64_t epoch() const { return 0; }
  virtual void set_epoch(uint64_t) {}

  // The shared membership/epoch layer beneath this replica, if it has one
  // (src/dso/replica_group.h); thin proxies return nullptr. Exposes role, epoch
  // and fail-over statistics to the GOS, tests and benches.
  virtual const ReplicaGroup* group() const { return nullptr; }

  // Installs the hosting server's telemetry hook (see AccessHook above).
  // Protocols that serve traffic record reads where served and writes where
  // executed; thin proxies and protocols without telemetry ignore it.
  virtual void set_access_hook(AccessHook) {}
};

}  // namespace globe::dso

#endif  // SRC_DSO_SUBOBJECTS_H_
