// The replica core beneath the replication protocols (paper §3.3: the
// replication subobject sits behind one standard interface, so protocols are
// interchangeable per object).
//
// Every hosted replica of every protocol derives from dso::Replica, which owns
// the parts all protocols share, exactly once:
//   - the local representative's fields: communication subobject, semantics,
//     write guard, replica group, version, access hook, protocol id (in the
//     group's FailoverConfig) and the primary's endpoint;
//   - the protocol-agnostic peer methods: dso.invoke (write guard on writes),
//     dso.reader (reads only), dso.get_state and dso.master_endpoint, each
//     classifying an invocation with SemanticsObject::IsReadOnly;
//   - the serving path: refusal after dso.retire, local reads with their
//     access sample, writes forwarded to the primary;
//   - the primary write path, reached by every write entry (local Invoke,
//     dso.invoke, ar.order). Lease-only: execute, fan out, ack. Quorum
//     (FailoverConfig::quorum): PumpQuorumWrites, which keeps the invariants
//     in one place — one write in flight, a rollback point (also the snapshot
//     a follower joining mid-write adopts), and the commit floor published to
//     the GLS arbiter before the ack;
//   - the follower side: the snapshot join at the primary, dso.lease, Start,
//     and leaving the primary on Shutdown.
//
// A protocol supplies only what differs: the message its primary fans a write
// out with (FanOutWrite), how its followers apply writes up to the commit
// floor (ApplyUpTo / DropHeldWrites / DurableVersion), and its method names
// (ReplicaMethods). Membership, epochs, fencing and fail-over live one layer
// down, in dso::ReplicaGroup.

#ifndef SRC_DSO_REPLICA_H_
#define SRC_DSO_REPLICA_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/dso/comm.h"
#include "src/dso/protocols.h"
#include "src/dso/replica_group.h"
#include "src/dso/subobjects.h"
#include "src/dso/wire.h"

namespace globe::dso {

// Per-attempt deadline of every write fan-out: a dead follower must not wedge
// the primary.
inline constexpr sim::SimTime kFanOutDeadline = 5 * sim::kSecond;

// A protocol's own names for the shared steps.
struct ReplicaMethods {
  gls::ProtocolId protocol = 0;
  // Followers forward writes to the primary with this (deduped there).
  const sim::TypedMethod<Invocation, Bytes>* forward = &kDsoInvoke;
  // Snapshot join at the primary; null when followers join without state.
  // Protocols that have it also follow the primary's dso.lease renewals.
  const sim::TypedMethod<EndpointMessage, VersionedState>* join = nullptr;
  // Leaving the primary on Shutdown; null when the protocol has no followers.
  const sim::TypedMethod<EndpointMessage, sim::EmptyMessage>* leave = nullptr;
};

class Replica : public ReplicationObject {
 public:
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Primaries claim or resume GLS mastership (with fail-over on); followers
  // join the primary, adopt its snapshot and start the lease watch.
  void Start(std::function<void(Status)> done) override;
  // Stops the group's timers; a follower also leaves its primary.
  void Shutdown(std::function<void(Status)> done) override;
  void Invoke(const Invocation& invocation, InvokeCallback done) override;

  uint64_t version() const override { return version_; }
  void set_version(uint64_t v) override { version_ = v; }
  uint64_t epoch() const override { return group_.epoch(); }
  void set_epoch(uint64_t e) override { group_.set_epoch(e); }
  std::optional<gls::ContactAddress> contact_address() const override {
    return group_.self_address(group_.role());
  }
  sim::Endpoint master_endpoint() const override {
    return group_.is_master() ? comm_.endpoint() : primary_;
  }
  SemanticsObject* semantics() override { return semantics_.get(); }
  const ReplicaGroup* group() const override { return &group_; }
  void set_access_hook(AccessHook hook) override { access_hook_ = std::move(hook); }

 protected:
  // `primary` is the primary's peer endpoint for a follower ({kNoNode, 0} for
  // a primary).
  Replica(sim::Transport* transport, sim::NodeId host,
          std::unique_ptr<SemanticsObject> semantics, GroupRole role,
          sim::Endpoint primary, WriteGuard write_guard, FailoverConfig failover,
          ReplicaMethods methods);

  // Primary side: sends the protocol's message for write version_ to every
  // member, stamped with the commit floor `committed`; `commit_point` is as in
  // ReplicaGroup::FanOut. The default has no followers to tell.
  virtual void FanOutWrite(const Invocation& write, uint64_t committed,
                           uint64_t commit_point,
                           std::function<void(const FanOutResult&)> done);
  // Executes a read locally and records its access sample.
  virtual void ServeRead(const Invocation& invocation, sim::NodeId client,
                         InvokeCallback done);
  // Follower side: the commit floor reached `floor`; apply the held writes it
  // covers.
  virtual void ApplyUpTo(uint64_t /*floor*/) {}
  // Discards writes held but not applied (a snapshot or an election
  // supersedes them).
  virtual void DropHeldWrites() {}
  // Applied version plus any held suffix this replica could serve if elected;
  // reported in push acks and claims.
  virtual uint64_t DurableVersion() const { return version_; }

  // dso.invoke: the write guard on writes, then the serving path.
  void HandleInvoke(const sim::RpcContext& ctx, const Invocation& invocation,
                    InvokeCallback respond);
  // Follower-side admission of a primary's fan-out message: write guard, epoch
  // fence, and refusal at a replica that is itself the primary.
  Result<PushAck> AdmitPush(const sim::RpcContext& ctx, uint64_t epoch);
  // Joins the primary and adopts its snapshot and epoch.
  void Join(std::function<void(Status)> done);
  VersionedState CurrentState() const {
    return VersionedState{version_, group_.epoch(), version_, semantics_->GetState()};
  }

  CommunicationObject comm_;
  std::unique_ptr<SemanticsObject> semantics_;
  sim::Endpoint primary_;  // meaningful while not the primary
  ReplicaGroup group_;
  uint64_t version_ = 0;

 private:
  // A write waiting for the single in-flight quorum round.
  struct QueuedWrite {
    Invocation invocation;
    sim::NodeId client;
    InvokeCallback done;
  };

  // Reads are recorded where they are served, writes only where they execute,
  // so a forwarded write is counted once — at the primary, attributed to the
  // forwarding replica. `read` is the semantics object's classification.
  void Serve(const Invocation& invocation, bool read, sim::NodeId client,
             InvokeCallback done);
  void ForwardWrite(const Invocation& invocation, InvokeCallback done);
  // Executes a write at the primary; on success bumps the version and records
  // the access.
  Result<Bytes> Execute(const Invocation& write, sim::NodeId client);
  // Lease-only: executes, fans out, and acks once every member answered. A
  // fan-out refused under a newer epoch means this primary was deposed: the
  // write is not acknowledged (FailedPrecondition).
  void ExecuteWrite(const Invocation& write, sim::NodeId client, InvokeCallback done);
  // Quorum mode serializes writes: the commit floor must be published in
  // version order, and the rollback point exists for one write at a time. Pops
  // the next write, refuses it up front if the reachable group cannot assemble
  // a quorum, otherwise executes it, fans it out with the write as its commit
  // point, publishes the commit floor on quorum and only then acks.
  void PumpQuorumWrites();
  // Restores the pre-write snapshot (state AND version) after a failed quorum
  // round and refuses the write definitively. Reusing the version slot is safe:
  // every message of the failed round settled or exhausted its per-attempt
  // deadline before the fan-out completed.
  void RollBack(const std::string& why, InvokeCallback done);
  // Closes the in-flight quorum round (committed, rolled back or failed to
  // execute) and releases its rollback point, a full copy of the state that
  // only the round itself reads.
  void EndQuorumRound();

  WriteGuard write_guard_;
  AccessHook access_hook_;
  ReplicaMethods methods_;
  std::deque<QueuedWrite> write_queue_;
  bool write_in_flight_ = false;
  Bytes pre_write_state_;
  uint64_t pre_write_version_ = 0;
};

}  // namespace globe::dso

#endif  // SRC_DSO_REPLICA_H_
