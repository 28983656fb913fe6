#include "src/dso/replica_group.h"

#include <algorithm>

namespace globe::dso {
namespace {
// Member check cadence (staggered per host to split simultaneous claims).
constexpr sim::SimTime kWatchInterval = 1 * sim::kSecond;
}  // namespace

std::string_view GroupRoleName(GroupRole role) {
  switch (role) {
    case GroupRole::kMaster:
      return "master";
    case GroupRole::kSlave:
      return "slave";
    case GroupRole::kPeer:
      return "peer";
    case GroupRole::kCache:
      return "cache";
  }
  return "unknown";
}

bool RoleTransitionAllowed(GroupRole from, GroupRole to) {
  if (from == to) {
    return true;
  }
  // The only legal moves are election and deposition. In particular a cache
  // can never become a master: it holds no authoritative state to serve from.
  return (from == GroupRole::kSlave && to == GroupRole::kMaster) ||
         (from == GroupRole::kMaster && to == GroupRole::kSlave);
}

gls::ReplicaRole ToReplicaRole(GroupRole role) {
  switch (role) {
    case GroupRole::kMaster:
      return gls::ReplicaRole::kMaster;
    case GroupRole::kSlave:
    case GroupRole::kPeer:
      return gls::ReplicaRole::kSlave;
    case GroupRole::kCache:
      return gls::ReplicaRole::kCache;
  }
  return gls::ReplicaRole::kSlave;
}

GroupRole FromReplicaRole(gls::ReplicaRole role) {
  switch (role) {
    case gls::ReplicaRole::kMaster:
      return GroupRole::kMaster;
    case gls::ReplicaRole::kSlave:
      return GroupRole::kSlave;
    case gls::ReplicaRole::kCache:
      return GroupRole::kCache;
  }
  return GroupRole::kSlave;
}

ReplicaGroup::ReplicaGroup(CommunicationObject* comm, GroupRole role)
    : comm_(comm), role_(role), alive_(std::make_shared<bool>(true)) {
  // Every replica of every protocol answers dso.retire: an epoch-fenced order
  // to stop serving because the object migrated away from this binding. The
  // epoch comparison is strict — a retire stamped with our own (or an older)
  // epoch is stale and refused, so a retire fan-out can never kill the very
  // group that issued the migration's new epoch.
  comm_->Register(kDsoRetire,
                  [this](const sim::RpcContext&,
                         const VersionMessage& msg) -> Result<PushAck> {
                    if (retired_) {
                      return PushAck{true, epoch_};
                    }
                    if (msg.epoch <= epoch_) {
                      ++stats_.stale_rejected;
                      return PushAck{false, epoch_};
                    }
                    GLOG_INFO << "replica " << sim::ToString(comm_->endpoint())
                              << " retired (object migrated, epoch "
                              << msg.epoch << ")";
                    retired_ = true;
                    epoch_ = msg.epoch;
                    CancelTimer();
                    return PushAck{true, epoch_};
                  });
}

ReplicaGroup::~ReplicaGroup() { Stop(); }

Status ReplicaGroup::TransitionTo(GroupRole to) {
  if (to == role_) {
    return OkStatus();
  }
  if (!RoleTransitionAllowed(role_, to)) {
    return FailedPrecondition(std::string("illegal role transition ") +
                              std::string(GroupRoleName(role_)) + " -> " +
                              std::string(GroupRoleName(to)));
  }
  GLOG_INFO << "replica " << sim::ToString(comm_->endpoint()) << ": "
            << GroupRoleName(role_) << " -> " << GroupRoleName(to) << " (epoch "
            << epoch_ << ")";
  role_ = to;
  ++stats_.role_transitions;
  return OkStatus();
}

bool ReplicaGroup::AddMember(const sim::Endpoint& peer) {
  // Re-registration is the sanctioned way back into the quorum count: the
  // member re-synced from the master's snapshot, so it holds the floor again.
  if (auto it = std::find(evicted_.begin(), evicted_.end(), peer);
      it != evicted_.end()) {
    evicted_.erase(it);
  }
  if (std::find(members_.begin(), members_.end(), peer) != members_.end()) {
    return false;
  }
  members_.push_back(peer);
  return true;
}

bool ReplicaGroup::RemoveMember(const sim::Endpoint& peer) {
  // Graceful removal (unregister/shutdown) forgets the peer entirely: it left
  // the group, so it must leave the quorum denominator too.
  if (auto it = std::find(evicted_.begin(), evicted_.end(), peer);
      it != evicted_.end()) {
    evicted_.erase(it);
  }
  auto it = std::find(members_.begin(), members_.end(), peer);
  if (it == members_.end()) {
    return false;
  }
  members_.erase(it);
  return true;
}

void ReplicaGroup::Evict(const sim::Endpoint& peer) {
  if (std::find(evicted_.begin(), evicted_.end(), peer) == evicted_.end()) {
    evicted_.push_back(peer);
  }
}

PushAck ReplicaGroup::FenceIncoming(uint64_t remote_epoch) {
  if (remote_epoch < epoch_) {
    ++stats_.stale_rejected;
    return PushAck{false, epoch_};
  }
  if (remote_epoch > epoch_) {
    if (is_master()) {
      // Newer-epoch traffic reaching a replica that still believes it is
      // master: refuse WITHOUT adopting the epoch — our own fan-outs must stay
      // stamped with the epoch we actually hold so peers can fence them — and
      // resolve the true ownership through the arbiter.
      ++stats_.stale_rejected;
      OnFencedSelf(remote_epoch);
      return PushAck{false, epoch_};
    }
    epoch_ = remote_epoch;
  }
  RecordLease();
  return PushAck{true, epoch_};
}

void ReplicaGroup::RecordLease() { last_renewal_ = comm_->clock()->Now(); }

void ReplicaGroup::EnableFailover(FailoverConfig config, Callbacks callbacks) {
  config_ = std::move(config);
  callbacks_ = std::move(callbacks);
  if (config_.enabled && gls_ == nullptr) {
    gls_ = std::make_unique<gls::GlsClient>(comm_->transport(), comm_->host(),
                                            config_.leaf_directory);
  }
}

gls::ContactAddress ReplicaGroup::self_address(GroupRole as) const {
  return gls::ContactAddress{comm_->endpoint(), config_.protocol,
                             ToReplicaRole(as)};
}

gls::MasterClaim ReplicaGroup::MakeClaim(uint64_t known_epoch) const {
  gls::MasterClaim claim;
  claim.oid = config_.oid;
  claim.claimant = self_address(GroupRole::kMaster);
  claim.known_epoch = known_epoch;
  uint64_t applied = callbacks_.version ? callbacks_.version() : 0;
  if (quorum_enabled()) {
    // Quorum mode reports the *committed* floor, never the applied version: a
    // master mid-write has applied a version that may yet roll back, and the
    // arbiter's floor must only ever name writes a quorum durably holds. A
    // follower claimant reports everything it could serve if elected — applied
    // state plus its staged suffix — so the floor check measures what the
    // claimant holds, not merely what it has executed.
    uint64_t durable =
        callbacks_.durable_version ? callbacks_.durable_version() : applied;
    claim.version = is_master() ? committed_version_
                                : std::max(durable, committed_version_);
    claim.strict_floor = true;
  } else {
    claim.version = applied;
  }
  claim.lease_duration = config_.lease_timeout;
  return claim;
}

void ReplicaGroup::StartMaster(std::function<void(Status)> done) {
  if (!config_.enabled) {
    done(OkStatus());
    return;
  }
  // Fresh master: claim epoch 1. Restarted master: resume at its checkpointed
  // epoch — a grant bumps the epoch (cleanly fencing anything the crash left in
  // flight), a rejection means an election happened while we were dark and the
  // Claim path demotes us onto the winner.
  Claim(epoch_, [done = std::move(done)] { done(OkStatus()); });
}

void ReplicaGroup::StartFollower() {
  if (!config_.enabled) {
    return;
  }
  if (role_ != GroupRole::kSlave && role_ != GroupRole::kPeer) {
    return;  // caches are not electable and never watch
  }
  RecordLease();
  ScheduleWatchTick();
}

void ReplicaGroup::Stop() {
  CancelTimer();
  *alive_ = false;
}

void ReplicaGroup::CancelTimer() {
  if (timer_ != sim::Clock::kNoTimer) {
    comm_->clock()->CancelTimer(timer_);
    timer_ = sim::Clock::kNoTimer;
  }
}

void ReplicaGroup::ScheduleMasterTick() {
  CancelTimer();
  timer_ = comm_->clock()->ScheduleAfter(
      config_.lease_interval, [this, alive = std::weak_ptr<bool>(alive_)] {
        if (auto a = alive.lock(); a && *a) {
          MasterTick();
        }
      });
}

void ReplicaGroup::MasterTick() {
  if (!is_master() || retired_) {
    return;  // demoted (or retired by a migration) since this tick was scheduled
  }
  // Epoch 0 means the bootstrap claim never landed (transport trouble reaching
  // the arbiter at StartMaster time): keep claiming, not renewing — a renewal
  // cannot create the ownership record. Claim reschedules this tick itself on
  // every outcome.
  if (epoch_ == 0) {
    Claim(0);
    return;
  }
  // (a) Extend the ownership lease at the GLS arbiter. A rejection under a
  // newer epoch names a newer master: demote onto it. A rejection under an
  // older-or-equal epoch means the arbiter's record is behind ours (restored
  // from an old checkpoint): re-claim with our epoch to re-seed it — a renewal
  // alone can never repair a rolled-back record. Transport failures keep
  // mastership optimistically — members still receiving dso.lease renewals
  // will not claim, and the next tick retries.
  gls_->RenewMasterLease(
      MakeClaim(epoch_),
      [this, alive = std::weak_ptr<bool>(alive_)](Result<gls::ClaimOutcome> r) {
        auto a = alive.lock();
        if (!a || !*a || !r.ok() || r->granted) {
          return;
        }
        if (r->epoch > epoch_) {
          Demote(r->master, r->epoch);
        } else if (is_master()) {
          Claim(epoch_);
        }
      });
  // (b) Broadcast the lease to members so their watches stay quiet. The lease
  // piggybacks the commit floor so quorum members apply staged writes within
  // one interval even when no further write arrives; without quorum the floor
  // equals the applied version, which is a no-op for receivers.
  if (!members_.empty()) {
    ++stats_.leases_sent;
    uint64_t applied = callbacks_.version ? callbacks_.version() : 0;
    LeaseMessage lease{epoch_, applied,
                       quorum_enabled() ? committed_version_ : applied,
                       comm_->endpoint()};
    FanOut(kDsoLease, lease, config_.lease_interval,
           /*drop_unreachable=*/false, /*commit_point=*/0,
           [](const FanOutResult&) {});
  }
  ScheduleMasterTick();
}

void ReplicaGroup::ScheduleWatchTick() {
  CancelTimer();
  // Deterministic per-host stagger so a whole group of slaves does not claim
  // in the same simulator instant. Keyed on the topology-stable host id, NOT
  // the ephemeral port: port allocation is process-global, and replayed runs
  // must schedule identically.
  sim::SimTime stagger = (comm_->host() % 7) * 29 * sim::kMillisecond;
  timer_ = comm_->clock()->ScheduleAfter(
      kWatchInterval + stagger,
      [this, alive = std::weak_ptr<bool>(alive_)] {
        if (auto a = alive.lock(); a && *a) {
          WatchTick();
        }
      });
}

void ReplicaGroup::WatchTick() {
  if (is_master() || !config_.enabled || retired_) {
    return;
  }
  sim::SimTime now = comm_->clock()->Now();
  if (!claim_in_flight_ && now >= last_renewal_ + config_.lease_timeout) {
    // The master missed a whole timeout of renewals: race for its epoch.
    Claim(epoch_);
  }
  ScheduleWatchTick();
}

void ReplicaGroup::Claim(uint64_t known_epoch, std::function<void()> settled) {
  if (gls_ == nullptr || claim_in_flight_ || retired_) {
    if (settled) {
      settled();
    }
    return;
  }
  claim_in_flight_ = true;
  ++stats_.claims;
  gls_->ClaimMaster(
      MakeClaim(known_epoch),
      [this, alive = std::weak_ptr<bool>(alive_),
       settled = std::move(settled)](Result<gls::ClaimOutcome> outcome) {
        auto a = alive.lock();
        if (!a || !*a) {
          return;
        }
        claim_in_flight_ = false;
        if (!outcome.ok()) {
          // Transport trouble reaching the arbiter. Followers retry from their
          // (independently rescheduled) watch; a master must reschedule its own
          // tick here — the bootstrap claim path has no other timer yet.
          if (is_master()) {
            ScheduleMasterTick();
          }
          if (settled) {
            settled();
          }
          return;
        }
        if (outcome->granted) {
          Promote(outcome->epoch, outcome->version_floor);
        } else {
          ++stats_.claims_lost;
          if (is_master()) {
            Demote(outcome->master, outcome->epoch);
          } else {
            epoch_ = std::max(epoch_, outcome->epoch);
            // Fresh patience before suspecting the (possibly new) winner.
            RecordLease();
            if (outcome->master.endpoint.node != sim::kNoNode &&
                outcome->master.endpoint != comm_->endpoint() &&
                callbacks_.on_adopted_master) {
              callbacks_.on_adopted_master(outcome->master.endpoint, epoch_);
            }
          }
        }
        if (settled) {
          settled();
        }
      });
}

void ReplicaGroup::Promote(uint64_t new_epoch, uint64_t committed_floor) {
  ++stats_.claims_won;
  stats_.elected_at = comm_->clock()->Now();
  epoch_ = new_epoch;
  // The grant reports the arbiter's acked-write floor: everything at or below
  // it was acked to some client and must survive this election; everything
  // above it was refused at its master and must not resurrect.
  committed_version_ = std::max(committed_version_, committed_floor);
  if (!is_master()) {
    Status s = TransitionTo(GroupRole::kMaster);
    if (!s.ok()) {
      GLOG_ERROR << "won a claim but cannot assume mastership: " << s;
      return;
    }
    // The GLS still lists us as a slave; advertise the new role. The deposed
    // master's record is its own to fix (each replica only ever mutates the
    // registrations of its own leaf domain).
    FixRegistration(GroupRole::kSlave, GroupRole::kMaster);
  }
  ScheduleMasterTick();
  if (callbacks_.on_won_mastership) {
    callbacks_.on_won_mastership(committed_version_);
  }
}

void ReplicaGroup::Demote(const gls::ContactAddress& winner, uint64_t new_epoch) {
  epoch_ = std::max(epoch_, new_epoch);
  if (!is_master()) {
    return;
  }
  if (winner.endpoint == comm_->endpoint()) {
    // The record names US: we already own the recorded epoch (e.g. a granted
    // claim whose response was lost past the retry budget). Adopt it and keep
    // the renewal cadence running rather than silently stalling as an
    // unleased master.
    if (config_.enabled) {
      ScheduleMasterTick();
    }
    return;
  }
  ++stats_.demotions;
  Status s = TransitionTo(GroupRole::kSlave);
  if (!s.ok()) {
    GLOG_ERROR << "cannot demote: " << s;
    return;
  }
  // A deposed master's member list belongs to the winner now: the members'
  // own watches re-register them there. Stop pushing to them under our dead
  // epoch. The evicted set goes with it — quorum accounting restarts from
  // scratch if this replica is ever re-elected.
  members_.clear();
  evicted_.clear();
  FixRegistration(GroupRole::kMaster, GroupRole::kSlave);
  RecordLease();
  ScheduleWatchTick();
  if (callbacks_.on_adopted_master) {
    callbacks_.on_adopted_master(winner.endpoint, epoch_);
  }
}

void ReplicaGroup::OnFencedSelf(uint64_t fence_epoch) {
  (void)fence_epoch;  // the arbiter, not the fencing peer, names the winner
  ++stats_.pushes_fenced;
  if (!is_master() || !config_.enabled || resolving_) {
    return;
  }
  // Ask the arbiter who owns the group now. Claiming with our (stale) epoch is
  // refused and names the winner to adopt; if the fence was itself stale (the
  // newer master already died and its lease lapsed), the claim re-wins.
  resolving_ = true;
  Claim(epoch_, [this, alive = std::weak_ptr<bool>(alive_)] {
    if (auto a = alive.lock(); a && *a) {
      resolving_ = false;
    }
  });
}

void ReplicaGroup::PublishCommitFloor(uint64_t version,
                                      std::function<void(Status)> done) {
  if (gls_ == nullptr || !quorum_enabled()) {
    RecordCommit(version);
    done(OkStatus());
    return;
  }
  // The local floor advances only AFTER the arbiter accepted the publication:
  // if it advanced first, the master's next push would stamp a committed floor
  // covering a write that may yet be rolled back, and members would apply it.
  ++stats_.floor_publishes;
  gls::MasterClaim claim = MakeClaim(epoch_);
  claim.version = std::max(version, committed_version_);
  gls_->RenewMasterLease(
      claim, [this, alive = std::weak_ptr<bool>(alive_), version,
              done = std::move(done)](Result<gls::ClaimOutcome> r) {
        auto a = alive.lock();
        if (!a || !*a) {
          return;
        }
        if (!r.ok()) {
          done(r.status());
          return;
        }
        if (!r->granted) {
          // A newer master exists (or the arbiter's record is ahead of us):
          // this write must not be acked. Demotion first, then the refusal.
          if (r->epoch > epoch_) {
            Demote(r->master, r->epoch);
          }
          done(FailedPrecondition("commit-floor publication refused"));
          return;
        }
        RecordCommit(version);
        done(OkStatus());
      });
}

void ReplicaGroup::FixRegistration(GroupRole old_role, GroupRole new_role) {
  if (gls_ == nullptr) {
    return;
  }
  // Best-effort under the GLS write retry budget: a miss leaves a stale
  // advisory contact address that the next role change or decommission fixes.
  gls_->Delete(config_.oid, self_address(old_role), [](Status) {});
  gls_->Insert(config_.oid, self_address(new_role), [](Status) {});
}

}  // namespace globe::dso
