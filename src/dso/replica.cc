#include "src/dso/replica.h"

#include "src/util/log.h"

namespace globe::dso {

Replica::Replica(sim::Transport* transport, sim::NodeId host,
                 std::unique_ptr<SemanticsObject> semantics, GroupRole role,
                 sim::Endpoint primary, WriteGuard write_guard,
                 FailoverConfig failover, ReplicaMethods methods)
    : comm_(transport, host),
      semantics_(std::move(semantics)),
      primary_(primary),
      group_(&comm_, role),
      write_guard_(std::move(write_guard)),
      methods_(methods) {
  failover.protocol = methods_.protocol;
  ReplicaGroup::Callbacks callbacks;
  callbacks.on_won_mastership = [this](uint64_t committed_floor) {
    // The member list starts empty: surviving followers join as their own
    // lease watches fire and their claims lose to ours.
    primary_ = sim::Endpoint{};
    // The grant names the acked-write floor: apply the held writes up to
    // exactly there and drop anything above it — those writes were refused at
    // their primary and must not resurrect through an election.
    ApplyUpTo(committed_floor);
    DropHeldWrites();
  };
  callbacks.on_adopted_master = [this](sim::Endpoint new_primary, uint64_t) {
    primary_ = new_primary;
    // Join the winner and refresh our snapshot (this also discards anything a
    // deposed primary diverged on — those writes were never acknowledged). On
    // failure the lease watch retries via the next claim.
    Join([](Status) {});
  };
  callbacks.version = [this] { return version_; };
  callbacks.durable_version = [this] { return DurableVersion(); };
  group_.EnableFailover(std::move(failover), std::move(callbacks));

  comm_.RegisterAsync(kDsoInvoke, [this](const sim::RpcContext& ctx,
                                         Invocation invocation,
                                         InvokeCallback respond) {
    HandleInvoke(ctx, invocation, std::move(respond));
  });
  comm_.RegisterAsync(kDsoReader, [this](const sim::RpcContext& ctx,
                                         Invocation invocation,
                                         InvokeCallback respond) {
    if (!semantics_->IsReadOnly(invocation.method)) {
      // A write is admitted only on dso.invoke: guarded there, and executed at
      // most once.
      respond(InvalidArgument(invocation.method + " is not a read; send it on " +
                              kDsoInvoke.name()));
      return;
    }
    Serve(invocation, /*read=*/true, ctx.client.node, std::move(respond));
  });
  comm_.Register(kDsoGetState,
                 [this](const sim::RpcContext&,
                        const sim::EmptyMessage&) -> Result<VersionedState> {
                   return CurrentState();
                 });
  comm_.Register(kDsoMasterEndpoint,
                 [this](const sim::RpcContext&,
                        const sim::EmptyMessage&) -> Result<EndpointMessage> {
                   return EndpointMessage{master_endpoint()};
                 });
  if (methods_.leave != nullptr) {
    comm_.Register(*methods_.leave,
                   [this](const sim::RpcContext&,
                          const EndpointMessage& request) -> Result<sim::EmptyMessage> {
                     group_.RemoveMember(request.endpoint);
                     return sim::EmptyMessage{};
                   });
  }
  if (methods_.join == nullptr) {
    return;
  }
  comm_.Register(*methods_.join,
                 [this](const sim::RpcContext&,
                        const EndpointMessage& request) -> Result<VersionedState> {
                   if (!group_.is_master()) {
                     return FailedPrecondition("not the master");
                   }
                   group_.AddMember(request.endpoint);
                   if (write_in_flight_) {
                     // Mid-quorum-round: hand out the rollback point, never
                     // state that may yet be rolled back and refused.
                     return VersionedState{pre_write_version_, group_.epoch(),
                                           pre_write_version_, pre_write_state_};
                   }
                   return CurrentState();
                 });
  comm_.Register(kDsoLease,
                 [this](const sim::RpcContext& ctx,
                        const LeaseMessage& lease) -> Result<PushAck> {
                   if (write_guard_) {
                     RETURN_IF_ERROR(write_guard_(ctx));
                   }
                   PushAck ack = group_.FenceIncoming(lease.epoch);
                   if (ack.accepted && !group_.is_master()) {
                     // A newer primary may have introduced itself before our
                     // watch fired (we are in its member list, or we would
                     // not get leases).
                     primary_ = lease.master;
                     // The lease piggybacks the commit floor, so follower
                     // staleness under quorum mode is bounded by one lease
                     // interval even when no further write arrives.
                     group_.RecordCommit(lease.committed);
                     ApplyUpTo(lease.committed);
                   }
                   ack.durable_version = DurableVersion();
                   return ack;
                 });
}

void Replica::Start(std::function<void(Status)> done) {
  if (group_.is_master()) {
    group_.StartMaster(std::move(done));
    return;
  }
  Join([this, done = std::move(done)](Status s) {
    // The lease watch starts even when the join failed (e.g. a replica
    // restored from a checkpoint whose primary moved): the watch times out,
    // claims, and either wins mastership or adopts the GLS record's primary
    // and joins there — the self-healing loop.
    group_.StartFollower();
    done(s);
  });
}

void Replica::Join(std::function<void(Status)> done) {
  // Registration is find-before-insert at the primary, so retrying it is safe.
  comm_.Call(*methods_.join, primary_, EndpointMessage{comm_.endpoint()},
             [this, done = std::move(done)](Result<VersionedState> result) {
               if (!result.ok()) {
                 done(result.status());
                 return;
               }
               Status s = semantics_->SetState(result->state);
               if (s.ok()) {
                 version_ = result->version;
                 // The snapshot supersedes anything held from a previous
                 // membership — including a staged write that was refused.
                 DropHeldWrites();
                 group_.RecordCommit(result->committed);
                 if (result->epoch > group_.epoch()) {
                   group_.set_epoch(result->epoch);
                 }
                 group_.RecordLease();
               }
               done(s);
             },
             WriteCallOptions());
}

void Replica::Shutdown(std::function<void(Status)> done) {
  group_.Stop();
  if (group_.is_master()) {
    done(OkStatus());
    return;
  }
  comm_.Call(*methods_.leave, primary_, EndpointMessage{comm_.endpoint()},
             [done = std::move(done)](Result<sim::EmptyMessage> result) {
               done(result.ok() ? OkStatus() : result.status());
             },
             WriteCallOptions());
}

void Replica::Invoke(const Invocation& invocation, InvokeCallback done) {
  Serve(invocation, semantics_->IsReadOnly(invocation.method), comm_.endpoint().node,
        std::move(done));
}

void Replica::HandleInvoke(const sim::RpcContext& ctx, const Invocation& invocation,
                           InvokeCallback respond) {
  bool read = semantics_->IsReadOnly(invocation.method);
  if (!read && write_guard_) {
    if (Status s = write_guard_(ctx); !s.ok()) {
      respond(s);
      return;
    }
  }
  Serve(invocation, read, ctx.client.node, std::move(respond));
}

Result<PushAck> Replica::AdmitPush(const sim::RpcContext& ctx, uint64_t epoch) {
  if (write_guard_) {
    RETURN_IF_ERROR(write_guard_(ctx));
  }
  PushAck ack = group_.FenceIncoming(epoch);
  if (ack.accepted && group_.is_master()) {
    // Two primaries under one epoch should not exist; refuse rather than let a
    // peer overwrite the authoritative copy.
    return PushAck{false, group_.epoch()};
  }
  return ack;
}

void Replica::Serve(const Invocation& invocation, bool read, sim::NodeId client,
                    InvokeCallback done) {
  if (group_.retired()) {
    // The object migrated away from this binding: refusing reads too is the
    // point — a retired replica must never serve dead state silently.
    group_.CountRetiredRefusal();
    done(FailedPrecondition("replica retired (object migrated); rebind"));
    return;
  }
  if (read) {
    ServeRead(invocation, client, std::move(done));
    return;
  }
  if (!group_.is_master()) {
    ForwardWrite(invocation, std::move(done));
    return;
  }
  if (group_.quorum_enabled()) {
    write_queue_.push_back(QueuedWrite{invocation, client, std::move(done)});
    PumpQuorumWrites();
    return;
  }
  ExecuteWrite(invocation, client, std::move(done));
}

void Replica::ServeRead(const Invocation& invocation, sim::NodeId client,
                        InvokeCallback done) {
  Result<Bytes> result = semantics_->Invoke(invocation);
  if (access_hook_ && result.ok()) {
    access_hook_(AccessSample{false, result->size(), client});
  }
  done(std::move(result));
}

void Replica::ForwardWrite(const Invocation& invocation, InvokeCallback done) {
  // The primary dedups the forward method, so the retry budget cannot
  // double-execute a write; our copy is refreshed by its fan-out.
  comm_.Call(*methods_.forward, primary_, invocation, std::move(done),
             WriteCallOptions());
}

void Replica::FanOutWrite(const Invocation&, uint64_t, uint64_t,
                          std::function<void(const FanOutResult&)> done) {
  done(FanOutResult{});
}

Result<Bytes> Replica::Execute(const Invocation& write, sim::NodeId client) {
  Result<Bytes> result = semantics_->Invoke(write);
  if (result.ok()) {
    ++version_;
    if (access_hook_) {
      access_hook_(AccessSample{true, write.args.size(), client});
    }
  }
  return result;
}

void Replica::ExecuteWrite(const Invocation& write, sim::NodeId client,
                           InvokeCallback done) {
  Result<Bytes> result = Execute(write, client);
  if (!result.ok()) {
    done(std::move(result));
    return;
  }
  // Respond once every member answered: a dead member must not wedge the
  // primary (with fail-over on it is dropped and rejoins through its own lease
  // watch). Non-quorum primaries stamp committed == version, which members
  // apply at once.
  bool strict = group_.failover_enabled();
  FanOutWrite(
      write, /*committed=*/version_, /*commit_point=*/0,
      [done = std::move(done), result = std::move(result),
       strict](const FanOutResult& fan) mutable {
        if (fan.fenced) {
          done(FailedPrecondition("no longer master: deposed by epoch " +
                                  std::to_string(fan.fence_epoch)));
          return;
        }
        if (strict && fan.failures > 0) {
          // With fail-over on, an evicted member may later be elected:
          // acknowledging a write it never received would break the
          // acked-write floor. Refuse the ack (definitive, so the dedup table
          // replays it — a retry must not re-execute). The outcome is
          // INDETERMINATE, not rolled back: the write stays applied locally
          // and becomes visible if this primary survives — the floor only
          // promises that *acked* writes are never lost.
          done(FailedPrecondition("write executed but not fully replicated: " +
                                  std::to_string(fan.failures) + " of " +
                                  std::to_string(fan.peers) +
                                  " push(es) unconfirmed"));
          return;
        }
        done(std::move(result));
      });
}

void Replica::PumpQuorumWrites() {
  if (write_in_flight_ || write_queue_.empty()) {
    return;
  }
  if (!group_.is_master()) {
    // Demoted while writes were queued: forward them to the winner.
    while (!write_queue_.empty()) {
      QueuedWrite w = std::move(write_queue_.front());
      write_queue_.pop_front();
      ForwardWrite(w.invocation, std::move(w.done));
    }
    return;
  }
  if (!group_.QuorumPossible()) {
    // The reachable group cannot assemble a majority (e.g. this primary is
    // partitioned from everyone): refuse without executing. Definitive — the
    // dedup table replays the refusal, and nothing was applied anywhere.
    QueuedWrite w = std::move(write_queue_.front());
    write_queue_.pop_front();
    group_.CountQuorumRefusal();
    w.done(FailedPrecondition(
        "write refused: quorum unreachable (" +
        std::to_string(1 + group_.num_members()) + " of " +
        std::to_string(group_.group_strength()) + " replicas reachable, need " +
        std::to_string(group_.quorum_size()) + "); nothing was applied"));
    PumpQuorumWrites();
    return;
  }

  write_in_flight_ = true;
  QueuedWrite w = std::move(write_queue_.front());
  write_queue_.pop_front();
  pre_write_state_ = semantics_->GetState();
  pre_write_version_ = version_;
  Result<Bytes> result = Execute(w.invocation, w.client);
  if (!result.ok()) {
    write_in_flight_ = false;
    w.done(std::move(result));
    PumpQuorumWrites();
    return;
  }

  uint64_t commit_point = version_;
  // The fan-out stamps the CURRENT floor, not the new write: members hold this
  // write and apply it only once the floor catches up — after the publication
  // below succeeds, via the next fan-out or lease.
  FanOutWrite(
      w.invocation, group_.committed_version(), commit_point,
      [this, done = std::move(w.done), result = std::move(result),
       commit_point](const FanOutResult& fan) mutable {
        if (fan.fenced) {
          RollBack("no longer master: deposed by epoch " +
                       std::to_string(fan.fence_epoch) + "; write rolled back",
                   std::move(done));
          return;
        }
        // This primary's own durable copy plus every member whose durable
        // version reached the write.
        size_t votes = 1 + fan.acks;
        if (votes < group_.quorum_size()) {
          RollBack("write under-replicated (" + std::to_string(votes) + " of " +
                       std::to_string(group_.group_strength()) +
                       " replicas hold it, need " +
                       std::to_string(group_.quorum_size()) + "); rolled back",
                   std::move(done));
          return;
        }
        // A quorum durably holds the write: publish the exact floor to the
        // arbiter, and only then ack. If publication fails the write is rolled
        // back and refused even though members hold it — held writes above
        // the floor never apply and are overwritten by the slot reuse.
        group_.PublishCommitFloor(
            commit_point, [this, done = std::move(done),
                           result = std::move(result)](Status s) mutable {
              if (!s.ok()) {
                RollBack(
                    "write held by a quorum but the commit floor could not be "
                    "published; rolled back: " +
                        s.message(),
                    std::move(done));
                return;
              }
              group_.CountQuorumCommit();
              write_in_flight_ = false;
              done(std::move(result));
              PumpQuorumWrites();
            });
      });
}

void Replica::RollBack(const std::string& why, InvokeCallback done) {
  if (Status s = semantics_->SetState(pre_write_state_); !s.ok()) {
    GLOG_ERROR << "quorum rollback failed to restore state: " << s;
  }
  version_ = pre_write_version_;
  group_.CountQuorumRefusal();
  write_in_flight_ = false;
  done(FailedPrecondition(why));
  PumpQuorumWrites();
}

}  // namespace globe::dso
