// The Globe Object Server (GOS): "an application-independent daemon for hosting
// replicas of any kind of distributed shared object" (paper §4).
//
// Moderator tools drive it with two commands (paper §6.1, "Adding and Removing
// Packages"): "create first replica" — which allocates an object identifier through
// the GLS, builds a master replica and registers its contact address — and "bind to
// DSO <OID>, create replica" — which looks the object up, builds a secondary replica
// of the object's protocol and registers it too.
//
// "Globe Object Servers allow replicas to save their state during a reboot and
// reconstruct themselves afterwards" (§4): Checkpoint() serializes every hosted
// replica (OID, semantics type, current contact address — which names protocol
// and role —, the master endpoint it follows, version, epoch, maintainers and
// state); Restore() rebuilds them on fresh ports, deregisters the stale contact
// addresses from the GLS and registers the new ones.
//
// The hosted replica is the only record of what it is: role, protocol and
// address come from its contact address, which fail-over rewrites, so a
// promoted slave switches protocol and checkpoints as the master it now is.
//
// RPC methods (port sim::kPortGos), moderator-only when a registry is enforced
// (§6.1 requirement 1):
//   gos.create_first_replica : u16 protocol, u16 semantics_type, maintainers
//                              -> OID, contact addr
//   gos.create_replica       : OID, u16 semantics_type, u8 role, maintainers
//                              -> contact addr
//   gos.remove_replica       : OID -> empty
//   gos.list_replicas        : empty -> vector<OID>

#ifndef SRC_GOS_OBJECT_SERVER_H_
#define SRC_GOS_OBJECT_SERVER_H_

#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "src/ctl/metrics_registry.h"
#include "src/dso/protocols.h"
#include "src/dso/repository.h"
#include "src/gls/directory.h"

namespace globe::gos {

// Wire formats of the moderator-facing GOS commands; one definition shared by
// ObjectServer (server side) and ModeratorTool (client side).
struct CreateFirstReplicaRequest {
  gls::ProtocolId protocol = 0;
  uint16_t semantics_type = 0;
  std::vector<sec::PrincipalId> maintainers;

  static constexpr auto kWireFields =
      std::tuple(&CreateFirstReplicaRequest::protocol,
                 &CreateFirstReplicaRequest::semantics_type,
                 &CreateFirstReplicaRequest::maintainers);
};

struct CreateFirstReplicaResponse {
  gls::ObjectId oid;
  gls::ContactAddress address;

  static constexpr auto kWireFields = std::tuple(&CreateFirstReplicaResponse::oid,
                                                 &CreateFirstReplicaResponse::address);
};

struct CreateReplicaRequest {
  gls::ObjectId oid;
  uint16_t semantics_type = 0;
  gls::ReplicaRole role = gls::ReplicaRole::kSlave;
  std::vector<sec::PrincipalId> maintainers;

  static constexpr auto kWireFields =
      std::tuple(&CreateReplicaRequest::oid, &CreateReplicaRequest::semantics_type,
                 &CreateReplicaRequest::role, &CreateReplicaRequest::maintainers);
};

struct CreateReplicaResponse {
  gls::ContactAddress address;

  static constexpr auto kWireFields = std::tuple(&CreateReplicaResponse::address);
};

struct RemoveReplicaRequest {
  gls::ObjectId oid;

  static constexpr auto kWireFields = std::tuple(&RemoveReplicaRequest::oid);
};

struct ListReplicasResponse {
  std::vector<gls::ObjectId> oids;

  static constexpr auto kWireFields = std::tuple(&ListReplicasResponse::oids);
};

// The moderator commands mutate hosting state (and allocate OIDs through the
// GLS), so a duplicate delivery must replay the first execution's response: a
// repeated create must not build a second replica or mint a second OID, and a
// repeated remove must not turn success into NotFound.
inline constexpr sim::TypedMethod<CreateFirstReplicaRequest, CreateFirstReplicaResponse>
    kGosCreateFirstReplica{"gos.create_first_replica", sim::kNonIdempotent};
inline constexpr sim::TypedMethod<CreateReplicaRequest, CreateReplicaResponse>
    kGosCreateReplica{"gos.create_replica", sim::kNonIdempotent};
inline constexpr sim::TypedMethod<RemoveReplicaRequest, sim::EmptyMessage>
    kGosRemoveReplica{"gos.remove_replica", sim::kNonIdempotent};
inline constexpr sim::TypedMethod<sim::EmptyMessage, ListReplicasResponse>
    kGosListReplicas{"gos.list_replicas"};

struct GosOptions {
  // Enforce "commands only from GDN moderators" (paper §6.1 requirement 1).
  bool enforce_authorization = false;
  // Guard installed on hosted replicas' write paths (see dso::WriteGuard).
  dso::WriteGuard replica_write_guard;
  // GLS-driven master fail-over for hosted master/slave and active replicas
  // (see dso::ReplicaGroup): masters lease their ownership through the GLS and
  // broadcast renewals; slaves that miss renewals race gls.claim_master. Off by
  // default — the lease timers keep the simulator queue non-empty, so tests
  // that drain with Run() must opt in and drive time with RunUntil.
  bool enable_failover = false;
  sim::SimTime failover_lease_interval = 2 * sim::kSecond;
  sim::SimTime failover_lease_timeout = 5 * sim::kSecond;
  // Quorum-acknowledged writes on hosted replicas (see dso::FailoverConfig::
  // quorum): a write is acked only once a strict majority of the group durably
  // holds it and its commit floor is published to the GLS arbiter; a master
  // partitioned from all members refuses writes instead of executing alone.
  // Requires enable_failover.
  bool failover_quorum = false;
  // Maps a client NodeId to the region bucket the replication controller
  // reasons in (under the GDN world: the country index). Unset = one region.
  ctl::RegionFn region_of;
};

struct GosStats {
  uint64_t replicas_created = 0;
  uint64_t replicas_removed = 0;
  uint64_t commands_denied = 0;
  uint64_t checkpoints = 0;
  uint64_t restores = 0;
  uint64_t protocol_switches = 0;
  // Retired replica endpoints answering with an immediate "object migrated"
  // error so stale bindings fail fast instead of waiting out RPC deadlines.
  uint64_t tombstones = 0;
  // Replicas hosted *elsewhere* (e.g. HTTPD-side replicas installed via
  // bind_as_replica) retired by a protocol switch here: each one accepted a
  // dso.retire carrying the new incarnation's epoch and now refuses traffic.
  uint64_t foreign_retires = 0;
};

class ObjectServer {
 public:
  ObjectServer(sim::Transport* transport, sim::NodeId host,
               const dso::ImplementationRepository* repository,
               gls::DirectoryRef leaf_directory, const sec::KeyRegistry* registry,
               GosOptions options = {});

  sim::Endpoint endpoint() const { return server_.endpoint(); }
  sim::NodeId host() const { return server_.node(); }
  const GosStats& stats() const { return stats_; }
  size_t num_replicas() const { return replicas_.size(); }

  // Direct access to a hosted replica's replication object (tests, benches).
  dso::ReplicationObject* FindReplica(const gls::ObjectId& oid);

  // The replication protocol / semantics type a hosted replica runs, or 0 if
  // the object is not hosted here.
  gls::ProtocolId ProtocolOf(const gls::ObjectId& oid) const;
  uint16_t SemanticsTypeOf(const gls::ObjectId& oid) const;

  // Every OID with a replica hosted here (the local flavor of gos.list_replicas).
  std::vector<gls::ObjectId> ReplicaOids() const {
    std::vector<gls::ObjectId> oids;
    for (const auto& [oid, replica] : replicas_) {
      oids.push_back(oid);
    }
    return oids;
  }

  // Per-object access telemetry for every replica this server hosts; the
  // replication controller (src/ctl) reads its decisions from here.
  ctl::MetricsRegistry* metrics() { return &metrics_; }
  const ctl::MetricsRegistry& metrics() const { return metrics_; }

  // Live policy migration (the GOS half of ctl::PolicyActuator::Migrate): tears
  // the hosted replica down, rebuilds it under `new_protocol` with the same
  // semantics state and version, bumps the group epoch by one so in-flight
  // traffic fenced on the old epoch cannot land on the new incarnation, and
  // swaps the GLS registration to the new contact address. The replica hosted
  // here must be the master now: a deposed master refuses.
  void SwitchProtocol(const gls::ObjectId& oid, gls::ProtocolId new_protocol,
                      std::function<void(Status)> done);

  // Persistence: full-state snapshot of every hosted replica.
  Bytes Checkpoint() const;

  // Rebuilds replicas from a checkpoint after a restart and starts them: masters
  // resume their mastership, secondaries rejoin the master they followed. Must be
  // called on a freshly constructed server. `done` fires after every replica is
  // re-registered in the GLS.
  void Restore(ByteSpan checkpoint, std::function<void(Status)> done);

  // Takes the server out of service: shuts down every hosted replica and
  // deregisters all their contact addresses in one gls.delete round trip.
  void Decommission(std::function<void(Status)> done);

  // Local (non-RPC) variants of the moderator commands, used by in-process tools.
  using CreateCallback =
      std::function<void(Result<std::pair<gls::ObjectId, gls::ContactAddress>>)>;
  // `maintainers` (paper §2 future work): principals additionally allowed to modify
  // this package — "a GDN maintainer is allowed to manage just the contents of a
  // package". They widen the replica's write guard for this object only.
  void CreateFirstReplica(gls::ProtocolId protocol, uint16_t semantics_type,
                          CreateCallback done,
                          std::vector<sec::PrincipalId> maintainers = {});
  void CreateReplica(const gls::ObjectId& oid, uint16_t semantics_type,
                     gls::ReplicaRole role, CreateCallback done,
                     std::vector<sec::PrincipalId> maintainers = {});
  void RemoveReplica(const gls::ObjectId& oid, std::function<void(Status)> done);

 private:
  struct HostedReplica {
    std::unique_ptr<dso::ReplicationObject> replication;
    std::vector<sec::PrincipalId> maintainers;
  };
  // What a rebuilt replica resumes from: a protocol switch or a checkpoint.
  struct Snapshot {
    Bytes state;
    uint64_t version = 0;
    uint64_t epoch = 0;
  };

  Status CheckModerator(const sim::RpcContext& context) const;
  // The replica write guard for a package with the given maintainers: the world
  // guard passes, or the authenticated peer is one of the maintainers.
  dso::WriteGuard GuardFor(std::vector<sec::PrincipalId> maintainers) const;
  // Builds (but does not start) every replica this server hosts: fresh for the
  // create paths, from `snapshot` for a protocol switch and a restore.
  // Secondaries find their master among `peers`.
  Result<HostedReplica> Build(const gls::ObjectId& oid, gls::ProtocolId protocol,
                              gls::ReplicaRole role, uint16_t semantics_type,
                              std::vector<gls::ContactAddress> peers,
                              std::vector<sec::PrincipalId> maintainers,
                              const Snapshot* snapshot);
  // Builds, starts and GLS-registers a replica; shared by both create paths.
  void InstallReplica(const gls::ObjectId& oid, gls::ProtocolId protocol,
                      uint16_t semantics_type, gls::ReplicaRole role,
                      std::vector<gls::ContactAddress> peers,
                      std::vector<sec::PrincipalId> maintainers, CreateCallback done);
  // The rebuild half of SwitchProtocol, run one event after the old replica's
  // shutdown so destroying that replica happens off its own call stack.
  void RebuildAs(const gls::ObjectId& oid, gls::ProtocolId new_protocol,
                 const Snapshot& snapshot, const gls::ContactAddress& old_address,
                 std::function<void(Status)> done);
  // Registers a responder on a retired replica port that fails every dso.*
  // call immediately with "object migrated". The simulated network drops
  // datagrams to closed ports silently, so without this, every client still
  // bound to the old endpoint waits out a full RPC deadline before its
  // rebind-on-failure logic (e.g. GdnHttpd's) can kick in.
  void TombstoneEndpoint(const gls::ObjectId& oid, const sim::Endpoint& endpoint);
  // The teardown half of a protocol switch for replicas this server does NOT
  // host: every address still registered for `oid` other than the fresh
  // incarnation's (HTTPD-side replicas bound via bind_as_replica, secondaries
  // on other servers) is sent dso.retire at the new epoch, so it stops serving
  // the pre-switch incarnation instead of answering beside it indefinitely.
  void RetireForeignReplicas(const gls::ObjectId& oid, const sim::Endpoint& fresh,
                             uint64_t new_epoch);

  sim::Transport* transport_;
  sim::RpcServer server_;
  gls::GlsClient gls_;
  const dso::ImplementationRepository* repository_;
  const sec::KeyRegistry* registry_;
  GosOptions options_;
  ctl::MetricsRegistry metrics_;
  std::map<gls::ObjectId, HostedReplica> replicas_;
  // Responders for retired replica ports, keyed by port (see TombstoneEndpoint).
  std::map<uint16_t, std::unique_ptr<sim::RpcServer>> tombstones_;
  GosStats stats_;
};

}  // namespace globe::gos

#endif  // SRC_GOS_OBJECT_SERVER_H_
