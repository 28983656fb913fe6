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
  // Reads go on dso.reader with the single-attempt default, so no replica keeps
  // their responses. Writes go on dso.invoke and carry the retry budget: the
  // replica dedups it, so a repeated delivery cannot execute twice.
  if (invocation.read_only) {
    comm_.Call(kDsoReader, peer_.endpoint, invocation, std::move(done));
    return;
  }
  comm_.Call(kDsoInvoke, peer_.endpoint, invocation, std::move(done), WriteCallOptions());
}

}  // namespace globe::dso
