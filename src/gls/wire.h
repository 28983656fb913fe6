// The wire messages of the GLS directory methods (see src/gls/directory.h for
// the method table). Each names its fields once; src/util/wire.h derives the
// byte layout and bounds-checks every count.

#ifndef SRC_GLS_WIRE_H_
#define SRC_GLS_WIRE_H_

#include <tuple>
#include <utility>
#include <vector>

#include "src/gls/oid.h"
#include "src/sim/clock.h"
#include "src/sim/topology.h"

namespace globe::gls {

// gls.scrub_address: one exact registration to remove.
struct AddressRequest {
  ObjectId oid;
  ContactAddress address;

  static constexpr auto kWireFields =
      std::tuple(&AddressRequest::oid, &AddressRequest::address);
};

// gls.insert / gls.delete: a batch of registrations.
struct BatchAddressRequest {
  std::vector<std::pair<ObjectId, ContactAddress>> items;

  static constexpr auto kWireFields = std::tuple(&BatchAddressRequest::items);
};

// gls.remove_ptr / gls.inval_cache.
struct PointerRequest {
  ObjectId oid;
  sim::DomainId child_domain = sim::kNoDomain;
  // gls.inval_cache only: whether the receiving cache should quarantine the
  // OID against immediate re-caching. Deregistration chains need it (a racing
  // lookup could re-cache the address being removed); insert-driven chains
  // must NOT set it, or the freshly registered nearer replica could not be
  // cached until the quarantine lapsed.
  bool quarantine = true;

  static constexpr auto kWireFields = std::tuple(
      &PointerRequest::oid, &PointerRequest::child_domain, &PointerRequest::quarantine);
};

// gls.install_ptr: one child domain, many OIDs.
struct BatchPointerRequest {
  sim::DomainId child_domain = sim::kNoDomain;
  std::vector<ObjectId> oids;

  static constexpr auto kWireFields =
      std::tuple(&BatchPointerRequest::child_domain, &BatchPointerRequest::oids);
};

// gls.alloc_oid response.
struct OidMessage {
  ObjectId oid;

  static constexpr auto kWireFields = std::tuple(&OidMessage::oid);
};

// gls.lookup / gls.lookup_all: subnodes forward it, GlsClient issues the
// initial request. The apex default is effectively +infinity, min()'d with the
// depths en route.
struct LookupWireRequest {
  ObjectId oid;
  uint32_t hops = 0;
  uint8_t phase = 0;  // DirectorySubnode::kPhaseUp / kPhaseDown
  int32_t apex_depth = 1 << 20;
  bool allow_cached = false;

  static constexpr auto kWireFields =
      std::tuple(&LookupWireRequest::oid, &LookupWireRequest::hops,
                 &LookupWireRequest::phase, &LookupWireRequest::apex_depth,
                 &LookupWireRequest::allow_cached);
};

// gls.claim_master / gls.renew_lease: one attempt to take or keep mastership
// of an object's replica group, racing towards the OID's root home subnode.
// `known_epoch` is the epoch the caller believes is current: a claim is granted
// only if the record has not moved past it AND the incumbent's lease has lapsed
// (or the caller is the incumbent), which is the conditional update that makes
// concurrent claimants race safely.
struct MasterClaim {
  ObjectId oid;
  ContactAddress claimant;
  uint64_t known_epoch = 0;
  // The claimant's applied write version. Renewals raise the record's
  // version floor with it; claims below the floor are refused (the claimant
  // is provably missing acknowledged writes), except from the incumbent —
  // whose checkpoint restore is the one sanctioned rollback.
  uint64_t version = 0;
  sim::SimTime lease_duration = 5 * sim::kSecond;
  // Quorum-ack mode: the floor is exact (every version at or below it was
  // acked to a client), so it must be monotone and binding for everyone — the
  // incumbent exemption above is disabled and a renewal can only raise it.
  bool strict_floor = false;

  static constexpr auto kWireFields =
      std::tuple(&MasterClaim::oid, &MasterClaim::claimant, &MasterClaim::known_epoch,
                 &MasterClaim::version, &MasterClaim::lease_duration,
                 &MasterClaim::strict_floor);
};

// The arbiter's answer. Rejections carry the current record so losers (and
// deposed masters) can adopt the winner. `version_floor` reports the record's
// acked-write floor at answer time: an elected quorum master applies its staged
// writes up to exactly this floor and discards anything above it.
struct ClaimOutcome {
  bool granted = false;
  uint64_t epoch = 0;
  ContactAddress master;
  uint64_t version_floor = 0;

  static constexpr auto kWireFields =
      std::tuple(&ClaimOutcome::granted, &ClaimOutcome::epoch, &ClaimOutcome::master,
                 &ClaimOutcome::version_floor);
};

}  // namespace globe::gls

#endif  // SRC_GLS_WIRE_H_
