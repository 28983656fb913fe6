// The wire messages the replication protocols exchange, plus the typed
// descriptors of the peer methods every replica speaks.

#ifndef SRC_DSO_WIRE_H_
#define SRC_DSO_WIRE_H_

#include <tuple>

#include "src/dso/invocation.h"
#include "src/sim/endpoint.h"
#include "src/sim/rpc.h"
#include "src/util/wire.h"

namespace globe::dso {

// A full state snapshot tagged with the master's write version and the replica
// group's membership epoch (see dso::ReplicaGroup): receivers reject snapshots
// pushed under an epoch older than their own, which is what fences a partitioned
// stale master out of a group that has re-elected.
//
// `committed` is the group's commit floor — the highest write version a quorum
// durably holds. A receiver applies a push only up to the floor: a push whose
// version lies above it is *staged* (held durably, acknowledged, but not
// executed) until a later message raises the floor past it. Masters running
// without quorum mode stamp committed == version, which applies immediately and
// preserves the original eager-push behaviour byte for byte.
struct VersionedState {
  uint64_t version = 0;
  uint64_t epoch = 0;
  uint64_t committed = 0;
  Bytes state;

  static constexpr auto kWireFields =
      std::tuple(&VersionedState::version, &VersionedState::epoch,
                 &VersionedState::committed, &VersionedState::state);
};

// A bare peer endpoint (registration and master-discovery messages).
struct EndpointMessage {
  sim::Endpoint endpoint;

  static constexpr auto kWireFields = std::tuple(&EndpointMessage::endpoint);
};

// A bare write version plus the sender's epoch (invalidations, registration
// acknowledgements).
struct VersionMessage {
  uint64_t version = 0;
  uint64_t epoch = 0;

  static constexpr auto kWireFields =
      std::tuple(&VersionMessage::version, &VersionMessage::epoch);
};

// Outcome of one replica-to-replica push (state push, ordered apply,
// invalidation, lease): accepted, or refused because the sender's epoch is
// stale. A refusing replica reports its own (newer) epoch, so a fenced master
// can resolve the new ownership through the GLS instead of retrying for ever.
//
// `durable_version` is the per-write commit point of quorum-acknowledged
// writes: the highest write version the acking replica durably holds after
// this push (applied state, or a staged entry it can materialize if elected).
// A master in quorum mode counts an ack towards the write's quorum only when
// the reported durable version reaches the write — an ack from a replica that
// accepted the message but could not retain the write (e.g. an active replica
// with a gap below it) is an answer, not a vote.
struct PushAck {
  bool accepted = true;
  uint64_t epoch = 0;
  uint64_t durable_version = 0;

  static constexpr auto kWireFields =
      std::tuple(&PushAck::accepted, &PushAck::epoch, &PushAck::durable_version);
};

// Master -> members lease renewal (fail-over: a member that misses renewals
// past its lease timeout suspects the master and races gls.claim_master).
// `committed` piggybacks the commit floor so quorum-mode members apply staged
// writes within one lease interval even when no further write arrives.
struct LeaseMessage {
  uint64_t epoch = 0;
  uint64_t version = 0;
  uint64_t committed = 0;
  sim::Endpoint master;

  static constexpr auto kWireFields =
      std::tuple(&LeaseMessage::epoch, &LeaseMessage::version,
                 &LeaseMessage::committed, &LeaseMessage::master);
};

// Sequencer -> members (active replication): one ordered write. The
// invocation rides length-prefixed, and a malformed one fails the decode, so
// it is refused before the push is admitted.
struct ApplyMessage {
  uint64_t version = 0;
  uint64_t epoch = 0;
  // Commit floor at send time (see VersionedState::committed): members execute
  // buffered writes only up to the floor; this write itself executes when a
  // later message's floor reaches it.
  uint64_t committed = 0;
  wire::Nested<Invocation> invocation;

  static constexpr auto kWireFields =
      std::tuple(&ApplyMessage::version, &ApplyMessage::epoch,
                 &ApplyMessage::committed, &ApplyMessage::invocation);
};

// The protocol-agnostic peer methods: every replica of every protocol answers
// these, which is what lets RemoteProxy bind thinly to anything.
//
// dso.invoke carries writes: semantics mutations are arbitrary, so a duplicate
// delivery must never execute twice, and the method is non-idempotent. Its
// at-most-once table keeps each response for the dedup TTL (120 s), for a file
// read the whole file, so thin proxies send reads on dso.reader: idempotent,
// kept nowhere, and run twice if delivered twice. Replicas classify an
// invocation with the semantics object's IsReadOnly, never with the caller's
// flag: dso.invoke puts a write through the write guard and the write path
// whatever the flag says (a read sent on it is served, and deduped), and
// dso.reader refuses a write. The names have the same length, so a read's
// frames are as long on either method.
inline constexpr sim::TypedMethod<Invocation, Bytes> kDsoInvoke{"dso.invoke",
                                                                sim::kNonIdempotent};
inline constexpr sim::TypedMethod<Invocation, Bytes> kDsoReader{"dso.reader"};
inline constexpr sim::TypedMethod<sim::EmptyMessage, VersionedState> kDsoGetState{
    "dso.get_state"};
inline constexpr sim::TypedMethod<sim::EmptyMessage, EndpointMessage>
    kDsoMasterEndpoint{"dso.master_endpoint"};
// Lease renewals are idempotent by construction (receivers only compare epochs
// and refresh a timestamp), so they skip the dedup table.
inline constexpr sim::TypedMethod<LeaseMessage, PushAck> kDsoLease{"dso.lease"};
// Epoch-fenced retirement (policy migration): a replica told that its object
// moved to a strictly newer epoch stops serving — reads included — so a
// formerly-bound representative (e.g. a master/slave slave inside a GDN-HTTPD)
// can never keep answering from dead state silently. Idempotent: receivers
// only compare epochs and latch a flag.
inline constexpr sim::TypedMethod<VersionMessage, PushAck> kDsoRetire{"dso.retire"};

// Every protocol retries its write-path calls with sim::WriteCallOptions
// instead of failing on the first lost message (the replication fan-outs keep
// their 5 s per-attempt deadlines so a dead peer cannot wedge a master); read
// paths keep the single-attempt default.
using sim::WriteCallOptions;

}  // namespace globe::dso

#endif  // SRC_DSO_WIRE_H_
