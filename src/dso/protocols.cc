#include "src/dso/protocols.h"

#include <limits>

#include "src/dso/active_repl.h"
#include "src/dso/cache_inval.h"
#include "src/dso/client_server.h"
#include "src/dso/master_slave.h"

namespace globe::dso {

WriteGuard RequireRoles(const sec::KeyRegistry* registry, std::vector<sec::Role> roles) {
  return [registry, roles = std::move(roles)](const sim::RpcContext& context) {
    return sec::CheckRole(registry, context, roles);
  };
}

std::string_view ProtocolName(gls::ProtocolId protocol) {
  switch (protocol) {
    case kProtoClientServer:
      return "client/server";
    case kProtoMasterSlave:
      return "master/slave";
    case kProtoActiveRepl:
      return "active";
    case kProtoCacheInval:
      return "cache/invalidate";
    default:
      return "unknown";
  }
}

namespace {
// Finds the master (or sequencer) among the known peer addresses.
Result<gls::ContactAddress> FindMaster(const std::vector<gls::ContactAddress>& peers) {
  for (const auto& peer : peers) {
    if (peer.role == gls::ReplicaRole::kMaster) {
      return peer;
    }
  }
  return FailedPrecondition("no master replica among known contact addresses");
}
}  // namespace

Result<gls::ContactAddress> NearestAddress(sim::Transport* transport, sim::NodeId host,
                                           const std::vector<gls::ContactAddress>&
                                               addresses) {
  if (addresses.empty()) {
    return NotFound("no contact addresses");
  }
  // Ranks by the transport's advisory delay estimate. Under the simulated
  // network this is the topology latency; socket backends report 0 for every
  // peer, so the first listed address wins — a deterministic, sensible default
  // when all peers are equally near.
  const gls::ContactAddress* best = nullptr;
  double best_latency = std::numeric_limits<double>::infinity();
  for (const auto& address : addresses) {
    double latency = transport->EstimateDeliveryDelayUs(host, address.endpoint.node, 0);
    if (latency < best_latency) {
      best_latency = latency;
      best = &address;
    }
  }
  return *best;
}

Result<std::unique_ptr<ReplicationObject>> MakeReplica(gls::ProtocolId protocol,
                                                       ReplicaSetup setup) {
  if (setup.semantics == nullptr) {
    return InvalidArgument("replica requires a semantics subobject");
  }
  // The hook is installed post-construction on whichever protocol class the
  // switch below builds, so every branch stays a plain constructor call.
  AccessHook hook = std::move(setup.access_hook);
  auto result = [&]() -> Result<std::unique_ptr<ReplicationObject>> {
    switch (protocol) {
    case kProtoClientServer:
      if (setup.role != gls::ReplicaRole::kMaster) {
        return InvalidArgument("client/server supports a single master replica only");
      }
      return std::unique_ptr<ReplicationObject>(std::make_unique<ClientServerServer>(
          setup.transport, setup.host, std::move(setup.semantics),
          std::move(setup.write_guard)));

    case kProtoMasterSlave: {
      if (setup.role == gls::ReplicaRole::kMaster) {
        return std::unique_ptr<ReplicationObject>(std::make_unique<MasterSlaveMaster>(
            setup.transport, setup.host, std::move(setup.semantics),
            std::move(setup.write_guard), std::move(setup.failover)));
      }
      ASSIGN_OR_RETURN(gls::ContactAddress master, FindMaster(setup.peers));
      return std::unique_ptr<ReplicationObject>(std::make_unique<MasterSlaveSlave>(
          setup.transport, setup.host, std::move(setup.semantics), master.endpoint,
          std::move(setup.write_guard), std::move(setup.failover)));
    }

    case kProtoActiveRepl: {
      if (setup.role == gls::ReplicaRole::kMaster) {
        return std::unique_ptr<ReplicationObject>(std::make_unique<ActiveReplMember>(
            setup.transport, setup.host, std::move(setup.semantics),
            sim::Endpoint{sim::kNoNode, 0}, std::move(setup.write_guard),
            std::move(setup.failover)));
      }
      ASSIGN_OR_RETURN(gls::ContactAddress sequencer, FindMaster(setup.peers));
      return std::unique_ptr<ReplicationObject>(std::make_unique<ActiveReplMember>(
          setup.transport, setup.host, std::move(setup.semantics), sequencer.endpoint,
          std::move(setup.write_guard), std::move(setup.failover)));
    }

    case kProtoCacheInval: {
      if (setup.role == gls::ReplicaRole::kMaster) {
        return std::unique_ptr<ReplicationObject>(std::make_unique<CacheInvalMaster>(
            setup.transport, setup.host, std::move(setup.semantics),
            std::move(setup.write_guard)));
      }
      ASSIGN_OR_RETURN(gls::ContactAddress master, FindMaster(setup.peers));
      return std::unique_ptr<ReplicationObject>(std::make_unique<CacheInvalCache>(
          setup.transport, setup.host, std::move(setup.semantics), master.endpoint,
          std::move(setup.write_guard)));
    }

    default:
      return InvalidArgument("unknown replication protocol " + std::to_string(protocol));
    }
  }();
  if (result.ok() && hook) {
    (*result)->set_access_hook(std::move(hook));
  }
  return result;
}

Result<std::unique_ptr<ReplicationObject>> MakeProxy(
    sim::Transport* transport, sim::NodeId host,
    const std::vector<gls::ContactAddress>& addresses) {
  ASSIGN_OR_RETURN(gls::ContactAddress nearest,
                   NearestAddress(transport, host, addresses));
  return std::unique_ptr<ReplicationObject>(
      std::make_unique<RemoteProxy>(transport, host, nearest));
}

}  // namespace globe::dso
