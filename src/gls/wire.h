// The wire messages of the GLS directory methods (see src/gls/directory.h for
// the method table). Each names its fields once; src/util/wire.h derives the
// byte layout and bounds-checks every count.

#ifndef SRC_GLS_WIRE_H_
#define SRC_GLS_WIRE_H_

#include <tuple>
#include <utility>
#include <vector>

#include "src/gls/oid.h"
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

// gls.claim_master / gls.renew_lease: one conditional ownership update (or
// lease extension) racing towards the OID's root home subnode.
struct ClaimWireRequest {
  ObjectId oid;
  ContactAddress claimant;
  uint64_t known_epoch = 0;
  uint64_t version = 0;         // claimant's applied write version (the floor)
  uint64_t lease_duration = 0;  // microseconds of ownership per grant/renewal
  bool strict_floor = false;    // quorum mode: monotone floor, no incumbent
                                // exemption (see MasterClaim::strict_floor)

  static constexpr auto kWireFields =
      std::tuple(&ClaimWireRequest::oid, &ClaimWireRequest::claimant,
                 &ClaimWireRequest::known_epoch, &ClaimWireRequest::version,
                 &ClaimWireRequest::lease_duration, &ClaimWireRequest::strict_floor);
};

struct ClaimWireResponse {
  bool granted = false;
  uint64_t epoch = 0;
  ContactAddress master;
  uint64_t version_floor = 0;  // the record's acked-write floor at answer time

  static constexpr auto kWireFields =
      std::tuple(&ClaimWireResponse::granted, &ClaimWireResponse::epoch,
                 &ClaimWireResponse::master, &ClaimWireResponse::version_floor);
};

}  // namespace globe::gls

#endif  // SRC_GLS_WIRE_H_
