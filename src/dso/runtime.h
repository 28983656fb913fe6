// The Globe run-time system: binding to distributed shared objects (paper §3.4).
//
// "The client calls a special function in the run-time system, named bind, and
// passes it the object identifier. The run-time system takes the OID and asks the
// Globe Location Service to map this OID to one or more contact addresses. ... the
// local run-time system then creates a new local representative in the client's
// address space and integrates this new representative into the DSO."
//
// One RuntimeSystem per address space (per simulated host process). Binding can
// produce a thin proxy (default) or install a real replica — the GDN-HTTPD case where
// "the local representative that is installed ... may act as a replica for the DSO".

#ifndef SRC_DSO_RUNTIME_H_
#define SRC_DSO_RUNTIME_H_

#include <memory>
#include <optional>
#include <type_traits>

#include "src/dns/gns.h"
#include "src/dso/control.h"
#include "src/dso/protocols.h"
#include "src/dso/repository.h"
#include "src/gls/directory.h"

namespace globe::dso {

struct BindOptions {
  // When set, install a local replica with this role (requires the semantics type to
  // be available in the implementation repository) instead of a thin proxy, and
  // publish its contact address in the GLS so other clients can find it.
  std::optional<gls::ReplicaRole> as_replica;
  uint16_t semantics_type = 0;
};

// A bound local representative plus its metadata. A replica's contact address
// (replication->contact_address()) is what the bind registered in the GLS;
// proxies have none.
struct BoundObject {
  gls::ObjectId oid;
  std::unique_ptr<ReplicationObject> replication;
  std::unique_ptr<ControlObject> control;

  // Invokes a declared method (see dso::Method) through the control subobject.
  template <typename Args, typename Res>
  void Call(const Method<Args, Res>& method, const std::type_identity_t<Args>& args,
            typename Method<Args, Res>::Callback done) {
    control->Call(method, args, std::move(done));
  }

  void Invoke(const Invocation& invocation, InvokeCallback done) {
    control->Invoke(invocation, std::move(done));
  }
};

struct BindStats {
  uint64_t binds = 0;
  uint64_t bind_failures = 0;
  uint64_t replicas_installed = 0;
};

class RuntimeSystem {
 public:
  // `gns` may be null if only OID-based binding is used on this host.
  RuntimeSystem(sim::Transport* transport, sim::NodeId host,
                gls::DirectoryRef leaf_directory,
                const ImplementationRepository* repository,
                dns::GnsClient* gns = nullptr);

  using BindCallback = std::function<void(Result<std::unique_ptr<BoundObject>>)>;

  // Binds by OID: GLS lookup, then proxy or replica installation.
  void Bind(const gls::ObjectId& oid, BindOptions options, BindCallback done);

  // Binds by symbolic name: GNS resolve, then Bind.
  void BindByName(std::string_view globe_name, BindOptions options, BindCallback done);

  // Gracefully releases a bound object: protocol shutdown plus, for a replica, GLS
  // deregistration of its contact address.
  void Unbind(std::unique_ptr<BoundObject> object, std::function<void(Status)> done);

  sim::NodeId host() const { return host_; }
  gls::GlsClient* gls() { return &gls_; }
  const BindStats& stats() const { return stats_; }

 private:
  void FinishBind(const gls::ObjectId& oid, BindOptions options,
                  std::vector<gls::ContactAddress> addresses, BindCallback done);

  sim::Transport* transport_;
  sim::NodeId host_;
  gls::GlsClient gls_;
  const ImplementationRepository* repository_;
  dns::GnsClient* gns_;
  BindStats stats_;
};

}  // namespace globe::dso

#endif  // SRC_DSO_RUNTIME_H_
