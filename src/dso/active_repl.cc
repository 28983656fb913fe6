#include "src/dso/active_repl.h"

#include <limits>

#include "src/util/log.h"

namespace globe::dso {

namespace {

const sim::TypedMethod<EndpointMessage, VersionedState> kArRegister{"ar.register"};
const sim::TypedMethod<EndpointMessage, sim::EmptyMessage> kArUnregister{
    "ar.unregister"};
// Ordering a write executes it at the sequencer and claims a version slot, so a
// duplicate delivery must be answered from the dedup table, never re-ordered.
// ar.apply needs no dedup: ApplyOrdered drops already-applied versions itself,
// and the epoch fence refuses applies from a deposed sequencer.
const sim::TypedMethod<Invocation, Bytes> kArOrder{"ar.order", sim::kNonIdempotent};
const sim::TypedMethod<ApplyMessage, PushAck> kArApply{"ar.apply"};

}  // namespace

ActiveReplMember::ActiveReplMember(sim::Transport* transport, sim::NodeId host,
                                   std::unique_ptr<SemanticsObject> semantics,
                                   sim::Endpoint sequencer, WriteGuard write_guard,
                                   FailoverConfig failover)
    : Replica(transport, host, std::move(semantics),
              sequencer.node == sim::kNoNode ? GroupRole::kMaster : GroupRole::kSlave,
              sequencer, std::move(write_guard), std::move(failover),
              ReplicaMethods{kProtoActiveRepl, &kArOrder, &kArRegister,
                             &kArUnregister}) {
  // A member forwards writes here; only the sequencer orders them, through the
  // same write path as every other write entry.
  comm_.RegisterAsync(kArOrder, [this](const sim::RpcContext& ctx,
                                       Invocation invocation,
                                       InvokeCallback respond) {
    if (!is_sequencer()) {
      respond(FailedPrecondition("not the sequencer"));
      return;
    }
    HandleInvoke(ctx, invocation, std::move(respond));
  });
  comm_.Register(kArApply,
                 [this](const sim::RpcContext& ctx,
                        const ApplyMessage& msg) -> Result<PushAck> {
                   ASSIGN_OR_RETURN(PushAck ack, AdmitPush(ctx, msg.epoch));
                   if (!ack.accepted) {
                     return ack;  // deposed sequencer: refuse the apply
                   }
                   group_.RecordCommit(msg.committed);
                   RETURN_IF_ERROR(ApplyOrdered(msg.version, msg.invocation.value));
                   ack.durable_version = DurableVersion();
                   return ack;
                 });
}

void ActiveReplMember::FanOutWrite(const Invocation& write, uint64_t committed,
                                   uint64_t commit_point,
                                   std::function<void(const FanOutResult&)> done) {
  // Retries on loss (ApplyOrdered is version-guarded, so duplicates are
  // no-ops); unreachable members are dropped and re-register for a snapshot.
  group_.FanOut(kArApply, ApplyMessage{version_, group_.epoch(), committed, {write}},
                kFanOutDeadline, /*drop_unreachable=*/true, commit_point,
                std::move(done));
}

Status ActiveReplMember::ApplyOrdered(uint64_t write_version,
                                      const Invocation& invocation) {
  if (write_version <= version_) {
    return OkStatus();  // duplicate
  }
  // Overwrite is unconditional: after a rollback at the sequencer the version
  // slot is reused, and the superseding invocation must replace the refused
  // one a previous broadcast left buffered here.
  pending_[write_version] = invocation;
  Status s = DrainPending();
  MaybeResync();
  return s;
}

void ActiveReplMember::ApplyUpTo(uint64_t) {
  DrainPending();
  MaybeResync();
}

Status ActiveReplMember::DrainPending() {
  // Quorum mode executes only up to the commit floor; without quorum writes
  // execute as soon as they are consecutive (the floor is not a gate).
  uint64_t limit = group_.quorum_enabled()
                       ? group_.committed_version()
                       : std::numeric_limits<uint64_t>::max();
  while (version_ < limit) {
    auto it = pending_.find(version_ + 1);
    if (it == pending_.end()) {
      break;
    }
    Result<Bytes> result = semantics_->Invoke(it->second);
    if (!result.ok()) {
      GLOG_ERROR << "active replica diverged applying v" << it->first << ": "
                 << result.status();
      return result.status();
    }
    ++version_;
    pending_.erase(it);
  }
  return OkStatus();
}

void ActiveReplMember::MaybeResync() {
  if (!group_.quorum_enabled() || resync_in_flight_ || is_sequencer() ||
      primary_.node == sim::kNoNode) {
    return;
  }
  if (group_.committed_version() <= DurableVersion()) {
    return;
  }
  // The commit floor moved past a write we never received (we were unreachable
  // for one broadcast): no later broadcast can fill the hole, only a snapshot.
  resync_in_flight_ = true;
  Join([this](Status) { resync_in_flight_ = false; });
}

}  // namespace globe::dso
