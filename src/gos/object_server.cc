#include "src/gos/object_server.h"

#include "src/dso/wire.h"

#include "src/util/log.h"

namespace globe::gos {

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
  if (!options_.enforce_authorization) {
    return OkStatus();
  }
  if (registry_ == nullptr) {
    return Internal("authorization enforced but no key registry configured");
  }
  if (context.peer_principal == sec::kAnonymous || !context.integrity_protected) {
    return PermissionDenied("GOS commands require an authenticated channel");
  }
  auto role = registry_->RoleOf(context.peer_principal);
  if (!role.ok()) {
    return PermissionDenied("unknown principal");
  }
  if (*role != sec::Role::kModerator && *role != sec::Role::kAdministrator) {
    return PermissionDenied("only GDN moderators may command an object server");
  }
  return OkStatus();
}

dso::ReplicationObject* ObjectServer::FindReplica(const gls::ObjectId& oid) {
  auto it = replicas_.find(oid);
  return it == replicas_.end() ? nullptr : it->second.replication.get();
}

gls::ProtocolId ObjectServer::ProtocolOf(const gls::ObjectId& oid) const {
  auto it = replicas_.find(oid);
  return it == replicas_.end() ? 0 : it->second.protocol;
}

uint16_t ObjectServer::SemanticsTypeOf(const gls::ObjectId& oid) const {
  auto it = replicas_.find(oid);
  return it == replicas_.end() ? 0 : it->second.semantics_type;
}

dso::FailoverConfig ObjectServer::FailoverFor(const gls::ObjectId& oid) const {
  dso::FailoverConfig failover;
  failover.enabled = options_.enable_failover;
  failover.oid = oid;
  failover.leaf_directory = gls_.leaf_directory();
  failover.lease_interval = options_.failover_lease_interval;
  failover.lease_timeout = options_.failover_lease_timeout;
  failover.quorum = options_.failover_quorum;
  return failover;
}

gls::ContactAddress ObjectServer::CurrentAddress(const HostedReplica& replica) {
  auto address = replica.replication->contact_address();
  return address.has_value() ? *address : replica.registered_address;
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

void ObjectServer::InstallReplica(const gls::ObjectId& oid, gls::ProtocolId protocol,
                                  uint16_t semantics_type, gls::ReplicaRole role,
                                  std::vector<gls::ContactAddress> peers,
                                  std::vector<sec::PrincipalId> maintainers,
                                  CreateCallback done) {
  if (replicas_.count(oid) > 0) {
    done(AlreadyExists("replica of " + oid.ToHex() + " already hosted here"));
    return;
  }
  auto semantics = repository_->Instantiate(semantics_type);
  if (!semantics.ok()) {
    done(semantics.status());
    return;
  }
  dso::ReplicaSetup setup;
  setup.transport = transport_;
  setup.host = server_.node();
  setup.semantics = std::move(*semantics);
  setup.role = role;
  setup.peers = std::move(peers);
  setup.write_guard = GuardFor(maintainers);
  setup.failover = FailoverFor(oid);
  setup.access_hook = metrics_.HookFor(oid);
  auto replica = dso::MakeReplica(protocol, std::move(setup));
  if (!replica.ok()) {
    done(replica.status());
    return;
  }

  HostedReplica hosted;
  hosted.protocol = protocol;
  hosted.semantics_type = semantics_type;
  hosted.role = role;
  hosted.maintainers = std::move(maintainers);
  hosted.replication = std::move(*replica);
  hosted.semantics = hosted.replication->semantics();
  auto address = hosted.replication->contact_address();
  if (!address.has_value()) {
    done(Internal("replica has no contact address"));
    return;
  }
  hosted.registered_address = *address;

  dso::ReplicationObject* replication = hosted.replication.get();
  replicas_[oid] = std::move(hosted);

  replication->Start([this, oid, done = std::move(done)](Status status) mutable {
    if (!status.ok()) {
      replicas_.erase(oid);
      done(status);
      return;
    }
    const gls::ContactAddress& registered = replicas_.at(oid).registered_address;
    gls_.Insert(oid, registered, [this, oid, address = registered,
                                  done = std::move(done)](Status s) {
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
  gls::ContactAddress address = CurrentAddress(it->second);
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
       {"dso.invoke", "dso.get_state", "dso.master_endpoint", "dso.lease"}) {
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
  HostedReplica& old = it->second;
  if (old.role != gls::ReplicaRole::kMaster) {
    done(FailedPrecondition("only the master replica may switch protocol"));
    return;
  }
  if (old.protocol == new_protocol) {
    done(OkStatus());
    return;
  }

  // Snapshot everything the new incarnation needs before tearing the old one
  // down: state, version, epoch, and the address the GLS currently advertises.
  Bytes state = old.semantics != nullptr ? old.semantics->GetState() : Bytes{};
  uint64_t version = old.replication->version();
  uint64_t epoch = old.replication->epoch();
  gls::ContactAddress old_address = CurrentAddress(old);
  uint16_t semantics_type = old.semantics_type;
  std::vector<sec::PrincipalId> maintainers = old.maintainers;

  dso::ReplicationObject* replication = old.replication.get();
  // Foreign replicas of the old incarnation (HTTPD-side replicas installed via
  // bind_as_replica, secondaries hosted on other servers) are torn down by a
  // dso.retire fan-out once the fresh registration is in place — see RebuildAs.
  replication->Shutdown([this, oid, new_protocol, state = std::move(state),
                         version, epoch, old_address, semantics_type,
                         maintainers = std::move(maintainers),
                         done = std::move(done)](Status) mutable {
    // Master shutdowns complete synchronously, so this callback may still be
    // on the old replication object's stack. Defer the rebuild one event so
    // replacing (= destroying) that object is safe.
    transport_->clock()->ScheduleAfter(
        0, [this, oid, new_protocol, state = std::move(state), version, epoch,
            old_address, semantics_type, maintainers = std::move(maintainers),
            done = std::move(done)]() mutable {
          RebuildAs(oid, new_protocol, state, version, epoch, old_address,
                    semantics_type, std::move(maintainers), std::move(done));
        });
  });
}

void ObjectServer::RebuildAs(const gls::ObjectId& oid, gls::ProtocolId new_protocol,
                             const Bytes& state, uint64_t version, uint64_t epoch,
                             const gls::ContactAddress& old_address,
                             uint16_t semantics_type,
                             std::vector<sec::PrincipalId> maintainers,
                             std::function<void(Status)> done) {
  auto it = replicas_.find(oid);
  if (it == replicas_.end()) {
    done(FailedPrecondition("replica of " + oid.ToHex() + " removed mid-switch"));
    return;
  }
  auto semantics = repository_->Instantiate(semantics_type);
  if (!semantics.ok()) {
    done(semantics.status());
    return;
  }
  if (Status set = (*semantics)->SetState(state); !set.ok()) {
    done(set);
    return;
  }
  dso::ReplicaSetup setup;
  setup.transport = transport_;
  setup.host = server_.node();
  setup.semantics = std::move(*semantics);
  setup.role = gls::ReplicaRole::kMaster;
  setup.write_guard = GuardFor(maintainers);
  setup.failover = FailoverFor(oid);
  setup.access_hook = metrics_.HookFor(oid);
  auto replica = dso::MakeReplica(new_protocol, std::move(setup));
  if (!replica.ok()) {
    done(replica.status());
    return;
  }
  // The new incarnation lives one epoch above the old group: stragglers still
  // carrying the old epoch are fenced instead of landing on the fresh replica.
  (*replica)->set_version(version);
  (*replica)->set_epoch(epoch + 1);

  HostedReplica& hosted = it->second;
  hosted.protocol = new_protocol;
  hosted.replication = std::move(*replica);
  hosted.semantics = hosted.replication->semantics();
  auto address = hosted.replication->contact_address();
  if (!address.has_value()) {
    done(Internal("replica has no contact address"));
    return;
  }
  hosted.registered_address = *address;
  // Clients still bound to the old incarnation must fail fast, not wait out
  // a 30 s call deadline against a silently closed port.
  TombstoneEndpoint(oid, old_address.endpoint);

  hosted.replication->Start([this, oid, old_address, epoch,
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
    gls::ContactAddress fresh = it->second.registered_address;
    // Swap the GLS registration: drop the old incarnation's address, register
    // the new one. The insert drives the insert-path invalidation chain, so
    // cached lookups converge on the new address without waiting out a TTL.
    gls_.Delete(oid, old_address, [this, oid, fresh, epoch,
                                   done = std::move(done)](Status) mutable {
      gls_.Insert(oid, fresh, [this, oid, fresh, epoch,
                               done = std::move(done)](Status s) {
        if (s.ok()) {
          ++stats_.protocol_switches;
          RetireForeignReplicas(oid, fresh.endpoint, epoch + 1);
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
                             if (ack.ok() && ack->accepted != 0) {
                               ++stats_.foreign_retires;
                             }
                           });
    }
  });
}

Bytes ObjectServer::Checkpoint() const {
  ByteWriter w;
  w.WriteVarint(replicas_.size());
  for (const auto& [oid, replica] : replicas_) {
    oid.Serialize(&w);
    w.WriteU16(replica.protocol);
    w.WriteU16(replica.semantics_type);
    w.WriteU8(static_cast<uint8_t>(replica.role));
    replica.registered_address.Serialize(&w);
    w.WriteU64(replica.replication->version());
    w.WriteU64(replica.replication->epoch());
    w.WriteVarint(replica.maintainers.size());
    for (sec::PrincipalId maintainer : replica.maintainers) {
      w.WriteU64(maintainer);
    }
    w.WriteLengthPrefixed(replica.semantics != nullptr ? replica.semantics->GetState()
                                                       : Bytes{});
  }
  // Optional trailer (absent in pre-telemetry checkpoints): the access
  // telemetry, so a restarted server resumes with warm rate estimates.
  metrics_.Serialize(&w);
  const_cast<GosStats&>(stats_).checkpoints++;
  return w.Take();
}

void ObjectServer::Restore(ByteSpan checkpoint, std::function<void(Status)> done) {
  struct Entry {
    gls::ObjectId oid;
    gls::ProtocolId protocol;
    uint16_t semantics_type;
    gls::ReplicaRole role;
    gls::ContactAddress old_address;
    uint64_t version;
    uint64_t epoch;
    std::vector<sec::PrincipalId> maintainers;
    Bytes state;
  };
  std::vector<Entry> entries;
  {
    ByteReader r(checkpoint);
    auto count = r.ReadVarint();
    if (!count.ok()) {
      done(count.status());
      return;
    }
    for (uint64_t i = 0; i < *count; ++i) {
      Entry entry;
      auto oid = gls::ObjectId::Deserialize(&r);
      auto protocol = r.ReadU16();
      auto semantics_type = r.ReadU16();
      auto role = r.ReadU8();
      auto address = gls::ContactAddress::Deserialize(&r);
      auto version = r.ReadU64();
      auto epoch = r.ReadU64();
      std::vector<sec::PrincipalId> maintainers;
      auto maintainer_count = r.ReadVarint();
      if (maintainer_count.ok()) {
        for (uint64_t j = 0; j < *maintainer_count; ++j) {
          auto id = r.ReadU64();
          if (!id.ok()) {
            done(InvalidArgument("corrupt GOS checkpoint"));
            return;
          }
          maintainers.push_back(*id);
        }
      }
      auto state = r.ReadLengthPrefixedView();
      if (!oid.ok() || !protocol.ok() || !semantics_type.ok() || !role.ok() ||
          !address.ok() || !version.ok() || !epoch.ok() || !maintainer_count.ok() ||
          !state.ok()) {
        done(InvalidArgument("corrupt GOS checkpoint"));
        return;
      }
      // The entry owns the snapshot past this parse (the checkpoint buffer is
      // released before replicas rebuild): copied at the ownership boundary.
      entries.push_back(Entry{*oid, *protocol, *semantics_type,
                              static_cast<gls::ReplicaRole>(*role), *address, *version,
                              *epoch, std::move(maintainers), ToBytes(*state)});
    }
    // Optional telemetry trailer (pre-telemetry checkpoints end here).
    if (!r.AtEnd()) {
      if (Status s = metrics_.Restore(&r); !s.ok()) {
        done(s);
        return;
      }
    }
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
  auto record_failure = [&build_error](Status s) {
    if (!s.ok() && build_error.ok()) {
      build_error = std::move(s);
    }
  };

  for (auto& entry : entries) {
    // Reconstruct the replica with its saved state; ports changed across the reboot,
    // so drop the stale contact address and register the new one.
    auto semantics = repository_->Instantiate(entry.semantics_type);
    if (!semantics.ok()) {
      record_failure(semantics.status());
      continue;
    }
    Status set = (*semantics)->SetState(entry.state);
    if (!set.ok()) {
      record_failure(set);
      continue;
    }
    dso::ReplicaSetup setup;
    setup.transport = transport_;
    setup.host = server_.node();
    setup.semantics = std::move(*semantics);
    setup.role = entry.role;
    setup.write_guard = GuardFor(entry.maintainers);
    setup.failover = FailoverFor(entry.oid);
    setup.access_hook = metrics_.HookFor(entry.oid);
    // Secondary replicas would need peers; restore keeps them in their role but they
    // re-register with the master lazily via the GLS addresses.
    if (entry.role != gls::ReplicaRole::kMaster) {
      setup.peers.push_back(gls::ContactAddress{
          entry.old_address.endpoint, entry.protocol, gls::ReplicaRole::kMaster});
    }
    auto replica = dso::MakeReplica(entry.protocol, std::move(setup));
    if (!replica.ok()) {
      record_failure(replica.status());
      continue;
    }
    (*replica)->set_version(entry.version);
    (*replica)->set_epoch(entry.epoch);

    HostedReplica hosted;
    hosted.protocol = entry.protocol;
    hosted.semantics_type = entry.semantics_type;
    hosted.role = entry.role;
    hosted.maintainers = entry.maintainers;
    hosted.replication = std::move(*replica);
    hosted.semantics = hosted.replication->semantics();
    hosted.registered_address = *hosted.replication->contact_address();
    gls::ContactAddress new_address = hosted.registered_address;
    replicas_[entry.oid] = std::move(hosted);

    stale.emplace_back(entry.oid, entry.old_address);
    fresh.emplace_back(entry.oid, new_address);

    // With fail-over on, the rebuilt replica resumes its group role: a master
    // re-claims (or discovers it lost) GLS mastership at its checkpointed
    // epoch; a slave starts its lease watch (its recorded master peer is the
    // stale pre-crash address, so the initial re-registration usually fails —
    // the watch then claims, is refused, and adopts the live master from the
    // GLS ownership record within about a lease timeout).
    if (options_.enable_failover) {
      replicas_.at(entry.oid).replication->Start([oid = entry.oid](Status s) {
        if (!s.ok()) {
          GLOG_WARN << "restored replica of " << oid.ToHex()
                    << " could not resume its group role: " << s;
        }
      });
    }
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
    registered.emplace_back(oid, CurrentAddress(replica));
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
