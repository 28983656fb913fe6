// Shared membership/epoch layer beneath the replication protocols.
//
// Every replica of every protocol is a dso::Replica (src/dso/replica.h), the
// core that owns the serving path, the primary write path (lease-only and
// quorum) and the follower join. Each Replica holds one ReplicaGroup, which
// owns three mechanisms beneath that core:
//   - membership: the peer endpoints a master pushes to (find-before-insert
//     registration, unregistration, drop-on-unreachable),
//   - an explicit role state machine: master / slave / peer / cache, with the
//     legal transitions declared in RoleTransitionAllowed — a slave may be
//     elected master, a master may be deposed back to slave, peer and cache
//     roles are terminal,
//   - the epoch-fenced state-transfer/fan-out engine: every state push, ordered
//     apply, invalidation and lease travels with the group's epoch and is
//     answered with a PushAck, so a partitioned stale master's traffic is
//     refused ("fenced") by replicas that moved to a newer epoch instead of
//     corrupting their state.
//
// On top sits GLS-driven master fail-over (optional, FailoverConfig::enabled):
//   - the master renews an ownership lease at the GLS arbiter (gls.renew_lease)
//     and broadcasts dso.lease renewals to its members on the virtual clock,
//   - members that miss renewals past lease_timeout race an epoch-fenced
//     conditional claim (gls.claim_master); the GLS grants exactly one claimant
//     the next epoch and losers adopt the winner,
//   - a master that learns of a newer epoch — a fenced push, a rejected
//     renewal, a lost claim — demotes itself, fixes its GLS registration and
//     adopts the winner.
//
// Guarantee class: primary-backup with external arbitration, not consensus.
// With fail-over enabled, a write is acknowledged only after every member
// confirmed the epoch-checked push — a push refused under a newer epoch, or
// one whose member stayed unreachable past the retry budget (and was evicted),
// fails the write instead of acking state a future master may lack. A master
// partitioned from all of its members therefore stops acking writes, and the
// GLS lease machinery eventually deposes it.
//
// Quorum-acknowledged writes (FailoverConfig::quorum) close the three residual
// loss windows of the lease-only mode:
//   - membership accounting: a member dropped as unreachable moves to an
//     *evicted* set instead of being forgotten, so the quorum denominator —
//     master + members + evicted — cannot shrink under a partition. A master
//     cut off from every member faces a denominator its lone vote can never
//     satisfy and refuses writes outright instead of executing alone;
//   - per-write commit point: each push carries the write version as its
//     commit point, and members answer with the durable version they hold
//     (PushAck::durable_version). The master acknowledges the client only once
//     a strict majority durably holds the write; an under-replicated write is
//     rolled back at the master (members only ever *staged* it) and refused
//     definitively, never left indeterminate;
//   - exact committed floor: the commit floor is published to the GLS arbiter
//     (gls.renew_lease with strict_floor) BEFORE the client ack, so an
//     election can never seat a claimant that is missing an acked write — the
//     floor at the arbiter is never behind an acknowledged version.

#ifndef SRC_DSO_REPLICA_GROUP_H_
#define SRC_DSO_REPLICA_GROUP_H_

#include <algorithm>
#include <functional>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "src/dso/comm.h"
#include "src/dso/wire.h"
#include "src/gls/directory.h"
#include "src/util/log.h"

namespace globe::dso {

// Role of a local representative inside its replica group. kPeer is the
// symmetric-protocol role (every member equivalent); the current protocols map
// master/slave/cache onto gls::ReplicaRole for their contact addresses.
enum class GroupRole : uint8_t {
  kMaster = 0,
  kSlave = 1,
  kPeer = 2,
  kCache = 3,
};

std::string_view GroupRoleName(GroupRole role);

// The declared transition table: slave -> master (won an election), master ->
// slave (deposed by a newer epoch). Peers and caches never change role — a
// cache must not be electable, it may not even hold valid state.
bool RoleTransitionAllowed(GroupRole from, GroupRole to);

gls::ReplicaRole ToReplicaRole(GroupRole role);
GroupRole FromReplicaRole(gls::ReplicaRole role);

// Everything fail-over needs to know; disabled by default so directly
// constructed replicas (unit tests, benches) behave exactly as before — no
// timers, no GLS traffic, epochs pinned at 0.
struct FailoverConfig {
  bool enabled = false;
  gls::ObjectId oid;
  gls::DirectoryRef leaf_directory;  // GLS entry point for claims/renewals
  gls::ProtocolId protocol = 0;      // stamped into (re)registered addresses
  // Master cadence: one GLS renewal + one dso.lease broadcast per interval.
  sim::SimTime lease_interval = 2 * sim::kSecond;
  // Member patience: claim mastership after this long without a renewal. Also
  // the ownership lease duration recorded at the GLS arbiter.
  sim::SimTime lease_timeout = 5 * sim::kSecond;
  // Quorum-acknowledged writes: a write is acked iff a strict majority of the
  // group (master + members + evicted members) durably holds it, the commit
  // floor is published to the arbiter before the ack, and an under-replicated
  // write is rolled back instead of surfacing as indeterminate. Costs one GLS
  // round trip per write batch (the floor publication) on top of the push
  // fan-out; see the README guarantee-class table.
  bool quorum = false;
};

struct GroupStats {
  uint64_t role_transitions = 0;
  uint64_t members_dropped = 0;  // peers dropped after an unreachable fan-out
  uint64_t pushes_fenced = 0;    // own fan-outs refused by a newer epoch
  uint64_t stale_rejected = 0;   // incoming pushes/leases we refused as stale
  uint64_t leases_sent = 0;      // dso.lease broadcasts issued as master
  uint64_t claims = 0;           // gls.claim_master attempts issued
  uint64_t claims_won = 0;
  uint64_t claims_lost = 0;
  uint64_t demotions = 0;           // master -> slave transitions taken
  sim::SimTime elected_at = 0;      // when this replica last won mastership
  uint64_t quorum_commits = 0;      // writes committed under quorum mode
  uint64_t quorum_refusals = 0;     // writes refused (rolled back/never applied)
  uint64_t floor_publishes = 0;     // commit-floor renewals sent to the arbiter
  uint64_t retired_refusals = 0;    // calls refused after dso.retire latched
};

// Aggregate outcome of one fan-out round.
struct FanOutResult {
  size_t peers = 0;     // members addressed
  size_t failures = 0;  // transport failures (peer possibly dropped)
  size_t acks = 0;      // accepted acks whose durable version reached the
                        // round's commit point (every accept when the point is 0)
  bool fenced = false;  // some peer refused under a newer epoch
  uint64_t fence_epoch = 0;
};

class ReplicaGroup {
 public:
  struct Callbacks {
    // The replica won (or resumed) mastership: role is kMaster, the epoch is
    // updated, the renewal cadence is running. The replica core clears its
    // primary endpoint here. `committed_floor` is the arbiter's acked-write
    // floor at the moment of the grant: a quorum-mode replica applies its held
    // writes up to (exactly) the floor and discards anything above it — those
    // writes were refused at their master and must not resurrect.
    std::function<void(uint64_t committed_floor)> on_won_mastership;
    // A newer master exists — lost claim, fenced push, rejected renewal. Role
    // is kSlave (after a demotion) and the epoch is updated; the replica core
    // points its forwarding at `master` and rejoins it here.
    std::function<void(sim::Endpoint master, uint64_t epoch)> on_adopted_master;
    // Current write version, stamped into lease broadcasts (optional).
    std::function<uint64_t()> version;
    // Highest write version this replica durably holds — applied state plus
    // any staged suffix it could materialize if elected (optional; defaults
    // to `version`). Claims report it so the arbiter's floor check sees what
    // the claimant could actually serve, not just what it has applied.
    std::function<uint64_t()> durable_version;
  };

  ReplicaGroup(CommunicationObject* comm, GroupRole role);
  ~ReplicaGroup();

  ReplicaGroup(const ReplicaGroup&) = delete;
  ReplicaGroup& operator=(const ReplicaGroup&) = delete;

  GroupRole role() const { return role_; }
  bool is_master() const { return role_ == GroupRole::kMaster; }
  uint64_t epoch() const { return epoch_; }
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }

  // Applies a role change, enforcing the declared transition table.
  Status TransitionTo(GroupRole to);

  // Membership (master side). AddMember is find-before-insert, so registration
  // handshakes are safe to retry; it also clears the peer's evicted mark (a
  // re-registration is the one sanctioned way back into the quorum count).
  // RemoveMember is the graceful path (unregister/shutdown) and forgets the
  // peer entirely.
  bool AddMember(const sim::Endpoint& peer);
  bool RemoveMember(const sim::Endpoint& peer);
  const std::vector<sim::Endpoint>& members() const { return members_; }
  size_t num_members() const { return members_.size(); }

  // Quorum accounting (FailoverConfig::quorum). Group strength counts this
  // replica, its reachable members AND the members evicted as unreachable —
  // eviction must not shrink the write quorum's denominator, or a master
  // partitioned from everyone would happily reach "quorum" of itself.
  bool quorum_enabled() const { return config_.enabled && config_.quorum; }
  size_t group_strength() const { return 1 + members_.size() + evicted_.size(); }
  size_t quorum_size() const { return group_strength() / 2 + 1; }
  // Whether the reachable group can still assemble a quorum at all; a master
  // that cannot refuses writes up front instead of executing and rolling back.
  bool QuorumPossible() const { return 1 + members_.size() >= quorum_size(); }

  // The acked-write commit floor: the highest version known committed (held by
  // a quorum and published to the arbiter). Monotone.
  uint64_t committed_version() const { return committed_version_; }
  void RecordCommit(uint64_t version) {
    committed_version_ = std::max(committed_version_, version);
  }

  // Publishes the commit floor to the GLS arbiter (a strict-floor lease
  // renewal) and reports the outcome. Quorum masters call this BEFORE acking a
  // write: once it succeeds, no claimant below the floor can win an election,
  // so the acked write can never be lost to a fail-over. A rejection under a
  // newer epoch demotes this master first and then reports the error.
  void PublishCommitFloor(uint64_t version, std::function<void(Status)> done);

  // dso.retire latched (the object migrated away from this binding under a
  // newer epoch): the replica must refuse every invocation, reads included.
  bool retired() const { return retired_; }
  // Protocol bookkeeping hooks for the shared stats block.
  void CountRetiredRefusal() { ++stats_.retired_refusals; }
  void CountQuorumCommit() { ++stats_.quorum_commits; }
  void CountQuorumRefusal() { ++stats_.quorum_refusals; }

  // Epoch fence for incoming group traffic (pushes, applies, invalidations,
  // leases): refuses anything from an older epoch, adopts a newer one, and
  // counts accepted traffic as a lease renewal from the current master.
  PushAck FenceIncoming(uint64_t remote_epoch);

  // Explicit renewal (e.g. a registration handshake that just adopted the
  // master's snapshot).
  void RecordLease();

  // The common fan-out engine: one call per member under the write retry
  // budget with a per-attempt deadline (a dead peer must not wedge the
  // caller). Members whose call exhausts its retries are dropped from the set
  // when `drop_unreachable` is set AND fail-over is enabled — an evicted
  // member's own lease watch brings it back via re-registration; without
  // fail-over nothing could, so the member is kept and resynced by the next
  // successful push, as the protocols always did. In quorum mode an evicted
  // member is remembered in the evicted set so the quorum denominator holds.
  // Members that refuse under a newer epoch mark the round fenced, which (with
  // fail-over on) triggers this master's demotion. `commit_point` is the write
  // version this round must make durable: an accepted ack counts towards
  // FanOutResult::acks only when the peer's reported durable version reaches
  // it (pass 0 — e.g. leases, invalidations — to count every accept). `done`
  // runs once after every member answered or failed.
  template <typename Req>
  void FanOut(const sim::TypedMethod<Req, PushAck>& method, const Req& request,
              sim::SimTime per_attempt_deadline, bool drop_unreachable,
              uint64_t commit_point,
              std::function<void(const FanOutResult&)> done) {
    if (members_.empty()) {
      done(FanOutResult{});
      return;
    }
    struct Round {
      FanOutResult result;
      size_t remaining = 0;
      std::function<void(const FanOutResult&)> done;
    };
    auto round = std::make_shared<Round>();
    round->result.peers = members_.size();
    round->remaining = members_.size();
    round->done = std::move(done);
    sim::CallOptions options = WriteCallOptions(per_attempt_deadline);
    std::vector<sim::Endpoint> peers = members_;  // acks may mutate the set
    for (const sim::Endpoint& peer : peers) {
      comm_->Call(method, peer, request,
                  [this, round, peer, drop_unreachable,
                   commit_point](Result<PushAck> ack) {
                    if (!ack.ok()) {
                      ++round->result.failures;
                      GLOG_WARN << GroupRoleName(role_) << " push to "
                                << sim::ToString(peer)
                                << " failed: " << ack.status();
                      if (drop_unreachable && config_.enabled &&
                          RemoveMember(peer)) {
                        ++stats_.members_dropped;
                        if (quorum_enabled()) Evict(peer);
                      }
                    } else if (!ack->accepted) {
                      round->result.fenced = true;
                      round->result.fence_epoch =
                          std::max(round->result.fence_epoch, ack->epoch);
                    } else if (ack->durable_version >= commit_point) {
                      ++round->result.acks;
                    }
                    if (--round->remaining == 0) {
                      if (round->result.fenced) {
                        OnFencedSelf(round->result.fence_epoch);
                      }
                      round->done(round->result);
                    }
                  },
                  options);
    }
  }

  // Fail-over wiring. EnableFailover only stores the configuration and
  // callbacks; the timers start with StartMaster / StartFollower.
  void EnableFailover(FailoverConfig config, Callbacks callbacks);
  bool failover_enabled() const { return config_.enabled; }
  const FailoverConfig& failover_config() const { return config_; }

  // Master side: claims (epoch 0) or resumes (checkpointed epoch) mastership at
  // the GLS, then begins the renewal/broadcast cadence. `done` runs once
  // ownership is settled — a rejected resume demotes to slave and adopts the
  // winner first, and still completes OK (the replica serves, just not as
  // master). Without fail-over this is an immediate no-op.
  void StartMaster(std::function<void(Status)> done);
  // Member side: begins the lease watch (slaves and peers only; caches are not
  // electable and never watch). Call after registering with the master.
  void StartFollower();
  // Cancels every timer and mutes pending callbacks; the shutdown path.
  void Stop();

  // The contact address this replica would publish when holding `as`.
  gls::ContactAddress self_address(GroupRole as) const;

  const GroupStats& stats() const { return stats_; }

 private:
  void ScheduleMasterTick();
  void MasterTick();
  void ScheduleWatchTick();
  void WatchTick();
  // Races a conditional ownership update; `settled` (optional) runs after the
  // outcome — grant or loss — has been fully applied.
  void Claim(uint64_t known_epoch, std::function<void()> settled = nullptr);
  void Promote(uint64_t new_epoch, uint64_t committed_floor);
  void Demote(const gls::ContactAddress& winner, uint64_t new_epoch);
  // Marks a just-dropped member as evicted (find-before-insert): it stays in
  // the quorum denominator until it re-registers or is gracefully removed.
  void Evict(const sim::Endpoint& peer);
  // A newer epoch surfaced in our own fan-out: resolve ownership via the GLS.
  void OnFencedSelf(uint64_t fence_epoch);
  // Re-registers this replica's contact address under its new role.
  void FixRegistration(GroupRole old_role, GroupRole new_role);
  void CancelTimer();
  gls::MasterClaim MakeClaim(uint64_t known_epoch) const;

  CommunicationObject* comm_;
  GroupRole role_;
  uint64_t epoch_ = 0;
  std::vector<sim::Endpoint> members_;
  // Members dropped as unreachable (quorum mode only): still counted in
  // group_strength, cleared by re-registration, graceful removal or demotion.
  std::vector<sim::Endpoint> evicted_;
  uint64_t committed_version_ = 0;
  bool retired_ = false;
  FailoverConfig config_;
  Callbacks callbacks_;
  std::unique_ptr<gls::GlsClient> gls_;
  sim::SimTime last_renewal_ = 0;
  bool claim_in_flight_ = false;
  bool resolving_ = false;  // a fence-triggered ownership resolution is underway
  sim::Clock::TimerId timer_ = sim::Clock::kNoTimer;
  // Mutes timer events and GLS callbacks after Stop()/destruction.
  std::shared_ptr<bool> alive_;
  GroupStats stats_;
};

}  // namespace globe::dso

#endif  // SRC_DSO_REPLICA_GROUP_H_
