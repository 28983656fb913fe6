#include "src/gos/object_server.h"

#include "src/dso/wire.h"
#include "src/util/log.h"
#include "src/util/wire.h"

namespace globe::gos {

namespace {

// One hosted replica as a checkpoint records it. The contact address names the
// protocol and the role the replica held; `followed` is the master it followed
// (its own endpoint while it was the master).
struct CheckpointEntry {
  gls::ObjectId oid;
  uint16_t semantics_type = 0;
  gls::ContactAddress address;
  sim::Endpoint followed;
  std::vector<sec::PrincipalId> maintainers;
  uint64_t version = 0;
  uint64_t epoch = 0;
  Bytes state;

  static constexpr auto kWireFields =
      std::tuple(&CheckpointEntry::oid, &CheckpointEntry::semantics_type,
                 &CheckpointEntry::address, &CheckpointEntry::followed,
                 &CheckpointEntry::maintainers, &CheckpointEntry::version,
                 &CheckpointEntry::epoch, &CheckpointEntry::state);
};

}  // namespace

ObjectServer::ObjectServer(sim::Transport* transport, sim::NodeId host,
                           const dso::ImplementationRepository* repository,
                           gls::DirectoryRef leaf_directory,
                           const sec::KeyRegistry* registry, GosOptions options)
    : transport_(transport),
      server_(transport, host, sim::kPortGos),
      gls_(transport, host, std::move(leaf_directory)),
      repository_(repository),
      registry_(registry),
      options_(std::move(options)),
      metrics_(transport->clock(), options_.region_of) {
  kGosCreateFirstReplica.RegisterAsync(
      &server_,
      [this](const sim::RpcContext& ctx, CreateFirstReplicaRequest request,
             std::function<void(Result<CreateFirstReplicaResponse>)> respond) {
        if (Status s = CheckModerator(ctx); !s.ok()) {
          ++stats_.commands_denied;
          respond(s);
          return;
        }
        CreateFirstReplica(
            request.protocol, request.semantics_type,
            [respond = std::move(respond)](
                Result<std::pair<gls::ObjectId, gls::ContactAddress>> result) {
              if (!result.ok()) {
                respond(result.status());
                return;
              }
              respond(CreateFirstReplicaResponse{result->first, result->second});
            },
            std::move(request.maintainers));
      });

  kGosCreateReplica.RegisterAsync(
      &server_, [this](const sim::RpcContext& ctx, CreateReplicaRequest request,
                       std::function<void(Result<CreateReplicaResponse>)> respond) {
        if (Status s = CheckModerator(ctx); !s.ok()) {
          ++stats_.commands_denied;
          respond(s);
          return;
        }
        CreateReplica(request.oid, request.semantics_type, request.role,
                      [respond = std::move(respond)](
                          Result<std::pair<gls::ObjectId, gls::ContactAddress>> result) {
                        if (!result.ok()) {
                          respond(result.status());
                          return;
                        }
                        respond(CreateReplicaResponse{result->second});
                      },
                      std::move(request.maintainers));
      });

  kGosRemoveReplica.RegisterAsync(
      &server_, [this](const sim::RpcContext& ctx, RemoveReplicaRequest request,
                       std::function<void(Result<sim::EmptyMessage>)> respond) {
        if (Status s = CheckModerator(ctx); !s.ok()) {
          ++stats_.commands_denied;
          respond(s);
          return;
        }
        RemoveReplica(request.oid, [respond = std::move(respond)](Status status) {
          if (status.ok()) {
            respond(sim::EmptyMessage{});
          } else {
            respond(status);
          }
        });
      });

  kGosListReplicas.Register(
      &server_,
      [this](const sim::RpcContext&,
             const sim::EmptyMessage&) -> Result<ListReplicasResponse> {
        ListReplicasResponse response;
        for (const auto& [oid, replica] : replicas_) {
          response.oids.push_back(oid);
        }
        return response;
      });
}

Status ObjectServer::CheckModerator(const sim::RpcContext& context) const {
  static constexpr sec::Role kModerators[] = {sec::Role::kModerator,
                                              sec::Role::kAdministrator};
  return options_.enforce_authorization
             ? sec::CheckRole(registry_, context, kModerators)
             : OkStatus();
}

dso::ReplicationObject* ObjectServer::FindReplica(const gls::ObjectId& oid) {
  auto it = replicas_.find(oid);
  return it == replicas_.end() ? nullptr : it->second.replication.get();
}

gls::ProtocolId ObjectServer::ProtocolOf(const gls::ObjectId& oid) const {
  auto it = replicas_.find(oid);
  return it == replicas_.end() ? 0 : it->second.replication->contact_address()->protocol;
}

uint16_t ObjectServer::SemanticsTypeOf(const gls::ObjectId& oid) const {
  auto it = replicas_.find(oid);
  return it == replicas_.end() ? 0 : it->second.replication->semantics()->type_id();
}

void ObjectServer::CreateFirstReplica(gls::ProtocolId protocol, uint16_t semantics_type,
                                      CreateCallback done,
                                      std::vector<sec::PrincipalId> maintainers) {
  // "As part of the registration, an object identifier is allocated for the DSO by
  // the GLS" (paper §6.1).
  gls_.AllocateOid([this, protocol, semantics_type, maintainers = std::move(maintainers),
                    done = std::move(done)](Result<gls::ObjectId> oid) mutable {
    if (!oid.ok()) {
      done(oid.status());
      return;
    }
    InstallReplica(*oid, protocol, semantics_type, gls::ReplicaRole::kMaster, {},
                   std::move(maintainers), std::move(done));
  });
}

dso::WriteGuard ObjectServer::GuardFor(std::vector<sec::PrincipalId> maintainers) const {
  if (!options_.replica_write_guard || maintainers.empty()) {
    return options_.replica_write_guard;
  }
  dso::WriteGuard base = options_.replica_write_guard;
  return [base, maintainers = std::move(maintainers)](
             const sim::RpcContext& ctx) -> Status {
    if (base(ctx).ok()) {
      return OkStatus();
    }
    if (ctx.integrity_protected) {
      for (sec::PrincipalId maintainer : maintainers) {
        if (ctx.peer_principal == maintainer) {
          return OkStatus();
        }
      }
    }
    return PermissionDenied("sender is neither authorized role nor package maintainer");
  };
}

void ObjectServer::CreateReplica(const gls::ObjectId& oid, uint16_t semantics_type,
                                 gls::ReplicaRole role, CreateCallback done,
                                 std::vector<sec::PrincipalId> maintainers) {
  // Bind to the DSO: find its existing replicas (and hence protocol and master).
  gls_.Lookup(oid, [this, oid, semantics_type, role, maintainers = std::move(maintainers),
                    done = std::move(done)](Result<gls::LookupResult> lookup) mutable {
    if (!lookup.ok()) {
      done(lookup.status());
      return;
    }
    if (lookup->addresses.empty()) {
      done(NotFound("object has no replicas to join"));
      return;
    }
    gls::ProtocolId protocol = lookup->addresses.front().protocol;

    // The GLS returns the *nearest* replica, which may be a secondary. Secondary
    // replicas need the master; every replica answers dso.master_endpoint with it.
    bool have_master = false;
    for (const auto& address : lookup->addresses) {
      if (address.role == gls::ReplicaRole::kMaster) {
        have_master = true;
        break;
      }
    }
    if (have_master || role == gls::ReplicaRole::kMaster) {
      InstallReplica(oid, protocol, semantics_type, role, std::move(lookup->addresses),
                     std::move(maintainers), std::move(done));
      return;
    }
    sim::Endpoint nearest = lookup->addresses.front().endpoint;
    auto client = std::make_shared<sim::Channel>(transport_, server_.node());
    dso::kDsoMasterEndpoint.Call(
        client.get(), nearest, sim::EmptyMessage{},
        [this, client, oid, protocol, semantics_type, role,
         addresses = std::move(lookup->addresses), maintainers = std::move(maintainers),
         done = std::move(done)](Result<dso::EndpointMessage> result) mutable {
          if (!result.ok()) {
            done(result.status());
            return;
          }
          addresses.push_back(gls::ContactAddress{result->endpoint, protocol,
                                                  gls::ReplicaRole::kMaster});
          InstallReplica(oid, protocol, semantics_type, role, std::move(addresses),
                         std::move(maintainers), std::move(done));
        });
  });
}

Result<ObjectServer::HostedReplica> ObjectServer::Build(
    const gls::ObjectId& oid, gls::ProtocolId protocol, gls::ReplicaRole role,
    uint16_t semantics_type, std::vector<gls::ContactAddress> peers,
    std::vector<sec::PrincipalId> maintainers, const Snapshot* snapshot) {
  ASSIGN_OR_RETURN(std::unique_ptr<dso::SemanticsObject> semantics,
                   repository_->Instantiate(semantics_type));
  if (snapshot != nullptr) {
    RETURN_IF_ERROR(semantics->SetState(snapshot->state));
  }
  dso::ReplicaSetup setup;
  setup.transport = transport_;
  setup.host = server_.node();
  setup.semantics = std::move(semantics);
  setup.role = role;
  setup.peers = std::move(peers);
  setup.write_guard = GuardFor(maintainers);
  setup.failover.enabled = options_.enable_failover;
  setup.failover.oid = oid;
  setup.failover.leaf_directory = gls_.leaf_directory();
  setup.failover.lease_interval = options_.failover_lease_interval;
  setup.failover.lease_timeout = options_.failover_lease_timeout;
  setup.failover.quorum = options_.failover_quorum;
  setup.access_hook = metrics_.HookFor(oid);
  ASSIGN_OR_RETURN(std::unique_ptr<dso::ReplicationObject> replication,
                   dso::MakeReplica(protocol, std::move(setup)));
  if (!replication->contact_address().has_value()) {
    return Internal("replica has no contact address");
  }
  if (snapshot != nullptr) {
    replication->set_version(snapshot->version);
    replication->set_epoch(snapshot->epoch);
  }
  return HostedReplica{std::move(replication), std::move(maintainers)};
}

void ObjectServer::InstallReplica(const gls::ObjectId& oid, gls::ProtocolId protocol,
                                  uint16_t semantics_type, gls::ReplicaRole role,
                                  std::vector<gls::ContactAddress> peers,
                                  std::vector<sec::PrincipalId> maintainers,
                                  CreateCallback done) {
  if (replicas_.count(oid) > 0) {
    done(AlreadyExists("replica of " + oid.ToHex() + " already hosted here"));
    return;
  }
  auto hosted = Build(oid, protocol, role, semantics_type, std::move(peers),
                      std::move(maintainers), nullptr);
  if (!hosted.ok()) {
    done(hosted.status());
    return;
  }
  dso::ReplicationObject* replication = hosted->replication.get();
  replicas_[oid] = std::move(*hosted);

  replication->Start([this, oid, done = std::move(done)](Status status) mutable {
    if (!status.ok()) {
      replicas_.erase(oid);
      done(status);
      return;
    }
    gls::ContactAddress address = *replicas_.at(oid).replication->contact_address();
    gls_.Insert(oid, address, [this, oid, address, done = std::move(done)](Status s) {
      if (!s.ok()) {
        replicas_.erase(oid);
        done(s);
        return;
      }
      ++stats_.replicas_created;
      done(std::make_pair(oid, address));
    });
  });
}

void ObjectServer::RemoveReplica(const gls::ObjectId& oid,
                                 std::function<void(Status)> done) {
  auto it = replicas_.find(oid);
  if (it == replicas_.end()) {
    done(NotFound("no replica of " + oid.ToHex() + " hosted here"));
    return;
  }
  // Deregister what the replica advertises NOW: fail-over may have rewritten
  // its role (and hence its GLS record) since the replica was installed.
  gls::ContactAddress address = *it->second.replication->contact_address();
  dso::ReplicationObject* replication = it->second.replication.get();
  replication->Shutdown([this, oid, address, done = std::move(done)](Status) {
    gls_.Delete(oid, address, [this, oid, address, done = std::move(done)](Status s) {
      replicas_.erase(oid);
      metrics_.Forget(oid);
      ++stats_.replicas_removed;
      TombstoneEndpoint(oid, address.endpoint);
      done(s);
    });
  });
}

void ObjectServer::TombstoneEndpoint(const gls::ObjectId& oid,
                                     const sim::Endpoint& endpoint) {
  if (endpoint.node != server_.node() || tombstones_.count(endpoint.port) > 0) {
    return;
  }
  auto responder =
      std::make_unique<sim::RpcServer>(transport_, server_.node(), endpoint.port);
  auto moved = [oid](const sim::RpcContext&, ByteSpan) -> Result<Bytes> {
    return FailedPrecondition("replica of " + oid.ToHex() +
                              " retired (policy migration); rebind");
  };
  for (const char* method :
       {dso::kDsoInvoke.name(), dso::kDsoReader.name(), dso::kDsoGetState.name(),
        dso::kDsoMasterEndpoint.name(), dso::kDsoLease.name()}) {
    responder->RegisterMethod(method, moved);
  }
  tombstones_[endpoint.port] = std::move(responder);
  ++stats_.tombstones;
}

void ObjectServer::SwitchProtocol(const gls::ObjectId& oid,
                                  gls::ProtocolId new_protocol,
                                  std::function<void(Status)> done) {
  auto it = replicas_.find(oid);
  if (it == replicas_.end()) {
    done(NotFound("no replica of " + oid.ToHex() + " hosted here"));
    return;
  }
  dso::ReplicationObject* replication = it->second.replication.get();
  // The role the replica holds now, not the one it was installed with: a
  // promoted slave may switch, a deposed master may not.
  gls::ContactAddress old_address = *replication->contact_address();
  if (old_address.role != gls::ReplicaRole::kMaster) {
    done(FailedPrecondition("only the master replica may switch protocol"));
    return;
  }
  if (old_address.protocol == new_protocol) {
    done(OkStatus());
    return;
  }

  // Snapshot everything the new incarnation needs before tearing the old one
  // down. It lives one epoch above the old group: stragglers still carrying
  // the old epoch are fenced instead of landing on the fresh replica.
  Snapshot snapshot{replication->semantics()->GetState(), replication->version(),
                    replication->epoch() + 1};
  // Foreign replicas of the old incarnation (HTTPD-side replicas installed via
  // bind_as_replica, secondaries hosted on other servers) are torn down by a
  // dso.retire fan-out once the fresh registration is in place — see RebuildAs.
  replication->Shutdown([this, oid, new_protocol, snapshot = std::move(snapshot),
                         old_address, done = std::move(done)](Status) mutable {
    // Master shutdowns complete synchronously, so this callback may still be
    // on the old replication object's stack. Defer the rebuild one event so
    // replacing (= destroying) that object is safe.
    transport_->clock()->ScheduleAfter(
        0, [this, oid, new_protocol, snapshot = std::move(snapshot), old_address,
            done = std::move(done)]() mutable {
          RebuildAs(oid, new_protocol, snapshot, old_address, std::move(done));
        });
  });
}

void ObjectServer::RebuildAs(const gls::ObjectId& oid, gls::ProtocolId new_protocol,
                             const Snapshot& snapshot,
                             const gls::ContactAddress& old_address,
                             std::function<void(Status)> done) {
  auto it = replicas_.find(oid);
  if (it == replicas_.end()) {
    done(FailedPrecondition("replica of " + oid.ToHex() + " removed mid-switch"));
    return;
  }
  HostedReplica& hosted = it->second;
  auto rebuilt = Build(oid, new_protocol, gls::ReplicaRole::kMaster,
                       hosted.replication->semantics()->type_id(), {},
                       hosted.maintainers, &snapshot);
  if (!rebuilt.ok()) {
    done(rebuilt.status());
    return;
  }
  hosted = std::move(*rebuilt);
  // Clients still bound to the old incarnation must fail fast, not wait out
  // a 30 s call deadline against a silently closed port.
  TombstoneEndpoint(oid, old_address.endpoint);

  hosted.replication->Start([this, oid, old_address, new_epoch = snapshot.epoch,
                             done = std::move(done)](Status status) mutable {
    if (!status.ok()) {
      done(status);
      return;
    }
    auto it = replicas_.find(oid);
    if (it == replicas_.end()) {
      done(FailedPrecondition("replica of " + oid.ToHex() + " removed mid-switch"));
      return;
    }
    gls::ContactAddress fresh = *it->second.replication->contact_address();
    // Swap the GLS registration: drop the old incarnation's address, register
    // the new one. The insert drives the insert-path invalidation chain, so
    // cached lookups converge on the new address without waiting out a TTL.
    gls_.Delete(oid, old_address, [this, oid, fresh, new_epoch,
                                   done = std::move(done)](Status) mutable {
      gls_.Insert(oid, fresh, [this, oid, fresh, new_epoch,
                               done = std::move(done)](Status s) {
        if (s.ok()) {
          ++stats_.protocol_switches;
          RetireForeignReplicas(oid, fresh.endpoint, new_epoch);
        }
        done(s);
      });
    });
  });
}

void ObjectServer::RetireForeignReplicas(const gls::ObjectId& oid,
                                         const sim::Endpoint& fresh,
                                         uint64_t new_epoch) {
  // Exhaustive enumeration, not a nearest-replica lookup: the fan-out must see
  // replicas this GOS never created — HTTPD-side representatives installed via
  // bind_as_replica in other countries — which a plain lookup from here would
  // stop short of (it ends at the fresh local registration).
  gls_.LookupAll(oid, [this, fresh, new_epoch](Result<gls::LookupResult> lookup) {
    if (!lookup.ok()) {
      return;  // nothing registered to retire (or GLS unreachable — addresses
               // left behind fail per-call and their hosts rebind on error)
    }
    auto client = std::make_shared<sim::Channel>(transport_, server_.node());
    for (const gls::ContactAddress& address : lookup->addresses) {
      if (address.endpoint == fresh) {
        continue;
      }
      // Fire-and-forget: the retire latch is idempotent and epoch-guarded, so
      // a duplicate or reordered delivery cannot un-retire anything, and a
      // replica that misses it entirely still fails fenced on its next
      // interaction with the new incarnation.
      dso::kDsoRetire.Call(client.get(), address.endpoint,
                           dso::VersionMessage{0, new_epoch},
                           [this, client](Result<dso::PushAck> ack) {
                             if (ack.ok() && ack->accepted) {
                               ++stats_.foreign_retires;
                             }
                           });
    }
  });
}

Bytes ObjectServer::Checkpoint() const {
  ByteWriter w;
  w.WriteVarint(replicas_.size());
  for (const auto& [oid, hosted] : replicas_) {
    dso::ReplicationObject& replica = *hosted.replication;
    wire::Put(&w, CheckpointEntry{oid, replica.semantics()->type_id(),
                                  *replica.contact_address(), replica.master_endpoint(),
                                  hosted.maintainers, replica.version(), replica.epoch(),
                                  replica.semantics()->GetState()});
  }
  // Optional trailer (absent in pre-telemetry checkpoints): the access
  // telemetry, so a restarted server resumes with warm rate estimates.
  metrics_.Serialize(&w);
  const_cast<GosStats&>(stats_).checkpoints++;
  return w.Take();
}

void ObjectServer::Restore(ByteSpan checkpoint, std::function<void(Status)> done) {
  // Parse everything before building anything: a corrupt checkpoint hosts no
  // replica and sends no GLS traffic.
  std::vector<CheckpointEntry> entries;
  ByteReader r(checkpoint);
  Status parsed = [&]() -> Status {
    ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      auto entry = wire::Read<CheckpointEntry>(&r);
      if (!entry.ok()) {
        return InvalidArgument("corrupt GOS checkpoint");
      }
      entries.push_back(std::move(*entry));
    }
    // Optional telemetry trailer (pre-telemetry checkpoints end here).
    return r.AtEnd() ? OkStatus() : metrics_.Restore(&r);
  }();
  if (!parsed.ok()) {
    done(parsed);
    return;
  }

  ++stats_.restores;
  if (entries.empty()) {
    done(OkStatus());
    return;
  }

  // Rebuild every replica first, collecting the GLS bookkeeping: the stale
  // addresses to drop and the fresh ones to register. The fresh registrations then
  // go out as one gls.insert batch instead of N single-item round trips.
  Status build_error = OkStatus();
  std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> stale;
  std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> fresh;
  for (CheckpointEntry& entry : entries) {
    // Ports changed across the reboot: a secondary follows the master it
    // followed before, and the stale contact address is dropped.
    std::vector<gls::ContactAddress> peers;
    if (entry.address.role != gls::ReplicaRole::kMaster) {
      peers.push_back(gls::ContactAddress{entry.followed, entry.address.protocol,
                                          gls::ReplicaRole::kMaster});
    }
    Snapshot snapshot{std::move(entry.state), entry.version, entry.epoch};
    auto hosted = Build(entry.oid, entry.address.protocol, entry.address.role,
                        entry.semantics_type, std::move(peers),
                        std::move(entry.maintainers), &snapshot);
    if (!hosted.ok()) {
      if (build_error.ok()) {
        build_error = hosted.status();
      }
      continue;
    }
    dso::ReplicationObject* replication = hosted->replication.get();
    replicas_[entry.oid] = std::move(*hosted);
    stale.emplace_back(entry.oid, entry.address);
    fresh.emplace_back(entry.oid, *replication->contact_address());

    // The rebuilt replica resumes its group role: a master with fail-over
    // re-claims (or discovers it lost) GLS mastership at its checkpointed
    // epoch; a secondary rejoins the master it followed and, with fail-over,
    // starts its lease watch (if that master moved, the watch claims, is
    // refused, and adopts the live master from the GLS ownership record).
    replication->Start([oid = entry.oid](Status s) {
      if (!s.ok()) {
        GLOG_WARN << "restored replica of " << oid.ToHex()
                  << " could not resume its group role: " << s;
      }
    });
  }

  if (fresh.empty()) {
    done(build_error);
    return;
  }

  // GLS bookkeeping: out with the stale addresses, in with the fresh ones — each
  // side one batched round trip. Missing stale addresses are fine (e.g. they were
  // never registered), so the delete batch's status is deliberately ignored.
  auto shared_done = std::make_shared<std::function<void(Status)>>(std::move(done));
  gls_.DeleteBatch(stale, [this, fresh = std::move(fresh), build_error,
                           shared_done](Status) {
    gls_.InsertBatch(fresh, [build_error, shared_done](Status s) {
      (*shared_done)(!s.ok() ? s : build_error);
    });
  });
}

void ObjectServer::Decommission(std::function<void(Status)> done) {
  if (replicas_.empty()) {
    done(OkStatus());
    return;
  }
  std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> registered;
  std::vector<dso::ReplicationObject*> replications;
  for (auto& [oid, replica] : replicas_) {
    // Current addresses, not installation-time ones: a fail-over role change
    // re-registered the replica under its new role.
    registered.emplace_back(oid, *replica.replication->contact_address());
    replications.push_back(replica.replication.get());
  }

  // Stop every replica first (peers deregister from masters etc.), then drop all
  // GLS registrations in one gls.delete batch instead of N single-item round trips.
  auto remaining = std::make_shared<size_t>(replications.size());
  auto shared_done = std::make_shared<std::function<void(Status)>>(std::move(done));
  auto deregister = std::make_shared<std::function<void()>>(
      [this, registered = std::move(registered), shared_done]() {
        gls_.DeleteBatch(registered, [this, count = registered.size(),
                                      shared_done](Status s) {
          stats_.replicas_removed += count;
          replicas_.clear();
          (*shared_done)(s);
        });
      });
  for (dso::ReplicationObject* replication : replications) {
    replication->Shutdown([remaining, deregister](Status) {
      if (--*remaining == 0) {
        (*deregister)();
      }
    });
  }
}

}  // namespace globe::gos
