#include "src/dso/client_server.h"

namespace globe::dso {

ClientServerServer::ClientServerServer(sim::Transport* transport, sim::NodeId host,
                                       std::unique_ptr<SemanticsObject> semantics,
                                       WriteGuard write_guard)
    : Replica(transport, host, std::move(semantics), GroupRole::kMaster,
              sim::Endpoint{}, std::move(write_guard), FailoverConfig{},
              ReplicaMethods{kProtoClientServer}) {}

RemoteProxy::RemoteProxy(sim::Transport* transport, sim::NodeId host,
                         gls::ContactAddress peer)
    : comm_(transport, host), peer_(peer) {}

void RemoteProxy::Invoke(const Invocation& invocation, InvokeCallback done) {
  // Writes carry the retry budget (the replica dedups dso.invoke, so a repeated
  // delivery cannot execute twice); reads keep the single-attempt default.
  comm_.Call(kDsoInvoke, peer_.endpoint, invocation,
             [done = std::move(done)](Result<Bytes> result) { done(std::move(result)); },
             invocation.read_only ? sim::CallOptions{} : WriteCallOptions());
}

}  // namespace globe::dso
