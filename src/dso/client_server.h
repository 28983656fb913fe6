// Client/(single) server replication: the simplest of the two protocols shipped with
// the first Globe release (paper §7). One server-side local representative holds the
// state and executes every invocation; clients hold thin proxies that forward
// everything to it.
//
// RemoteProxy doubles as the generic thin-client binding for every other protocol:
// replicas of all protocols accept "dso.reader" and "dso.invoke" and route reads/writes
// per their own rules, so a proxy only needs to pick the nearest replica and forward.
//
// Peer methods (all from the dso::Replica core):
//   dso.invoke          : Invocation -> result bytes (at most once; writes)
//   dso.reader          : Invocation -> result bytes (reads only)
//   dso.get_state       : empty -> VersionedState
//   dso.master_endpoint : empty -> endpoint

#ifndef SRC_DSO_CLIENT_SERVER_H_
#define SRC_DSO_CLIENT_SERVER_H_

#include <memory>

#include "src/dso/replica.h"

namespace globe::dso {

// The single server is a dso::Replica that is always the primary: the shared
// serving path and lease-only write path with no followers to tell, so every
// access — read or write — executes and is recorded here.
class ClientServerServer : public Replica {
 public:
  ClientServerServer(sim::Transport* transport, sim::NodeId host,
                     std::unique_ptr<SemanticsObject> semantics,
                     WriteGuard write_guard = nullptr);
};

// Thin client-side representative: no semantics subobject, no local state; every
// invocation crosses the network to one chosen replica.
class RemoteProxy : public ReplicationObject {
 public:
  RemoteProxy(sim::Transport* transport, sim::NodeId host, gls::ContactAddress peer);

  void Invoke(const Invocation& invocation, InvokeCallback done) override;
  uint64_t version() const override { return 0; }

  const gls::ContactAddress& peer() const { return peer_; }

 private:
  CommunicationObject comm_;
  gls::ContactAddress peer_;
};

}  // namespace globe::dso

#endif  // SRC_DSO_CLIENT_SERVER_H_
