#include "src/gls/directory.h"

#include <algorithm>

#include "src/util/log.h"
#include "src/util/wire.h"

namespace globe::gls {

namespace {

// The typed method table: one definition per wire method, shared by servers
// (Register*) and clients (Call) so the two sides cannot drift apart. Every
// mutation is non-idempotent — a duplicate delivery (a retry whose response was
// lost) must neither re-run the coherence chains nor turn a succeeded delete
// into NotFound, and a repeated alloc_oid must hand back the same OID. Lookups
// and cache invalidations are safely repeatable and skip the dedup table.
const sim::TypedMethod<LookupWireRequest, LookupResult> kGlsLookup{"gls.lookup"};
const sim::TypedMethod<LookupWireRequest, LookupResult> kGlsLookupAll{
    "gls.lookup_all"};
const sim::TypedMethod<BatchAddressRequest, sim::EmptyMessage> kGlsInsert{
    "gls.insert", sim::kNonIdempotent};
const sim::TypedMethod<BatchAddressRequest, sim::EmptyMessage> kGlsDelete{
    "gls.delete", sim::kNonIdempotent};
const sim::TypedMethod<BatchPointerRequest, sim::EmptyMessage> kGlsInstallPtr{
    "gls.install_ptr", sim::kNonIdempotent};
const sim::TypedMethod<PointerRequest, sim::EmptyMessage> kGlsRemovePtr{
    "gls.remove_ptr", sim::kNonIdempotent};
const sim::TypedMethod<PointerRequest, sim::EmptyMessage> kGlsInvalCache{
    "gls.inval_cache"};
// Deposed-master cleanup: removes one exact (oid, address) pair wherever the
// registration subtree still holds it. Idempotent by construction — a missing
// address is success — so duplicates skip the dedup table like invalidations.
const sim::TypedMethod<AddressRequest, sim::EmptyMessage> kGlsScrubAddress{
    "gls.scrub_address"};
const sim::TypedMethod<sim::EmptyMessage, OidMessage> kGlsAllocOid{
    "gls.alloc_oid", sim::kNonIdempotent};
// A duplicate-delivered claim must replay the first arbitration instead of
// granting a second epoch; renewals only refresh a timestamp and skip the table.
const sim::TypedMethod<MasterClaim, ClaimOutcome> kGlsClaimMaster{
    "gls.claim_master", sim::kNonIdempotent};
const sim::TypedMethod<MasterClaim, ClaimOutcome> kGlsRenewLease{
    "gls.renew_lease"};

using EmptyCallback = std::function<void(Result<sim::EmptyMessage>)>;

// Joins `n` typed-empty completions into one response carrying the first error.
EmptyCallback JoinEmpty(size_t n, EmptyCallback respond) {
  struct JoinState {
    size_t remaining;
    Status first_error = OkStatus();
    EmptyCallback respond;
  };
  auto state = std::make_shared<JoinState>();
  state->remaining = n;
  state->respond = std::move(respond);
  return [state](Result<sim::EmptyMessage> result) {
    if (!result.ok() && state->first_error.ok()) {
      state->first_error = result.status();
    }
    if (--state->remaining > 0) {
      return;
    }
    if (state->first_error.ok()) {
      state->respond(sim::EmptyMessage{});
    } else {
      state->respond(state->first_error);
    }
  };
}

}  // namespace

// ---------------------------------------------------------------- DirectoryRef

size_t DirectoryRef::AlternateIndex(const ObjectId& oid) const {
  assert(!subnodes.empty() && "DirectoryRef::AlternateIndex on an empty ref");
  if (subnodes.size() < 2) {
    return 0;
  }
  size_t home = SubnodeIndex(oid);
  // An independent slice of the same hash keeps the pick deterministic per OID
  // while spreading different hot OIDs over different (home, alternate) pairs.
  size_t offset = 1 + (oid.Hash() >> 20) % (subnodes.size() - 1);
  return (home + offset) % subnodes.size();
}

Result<sim::Endpoint> DirectoryRef::TryRoute(const ObjectId& oid,
                                             const sim::Channel& channel,
                                             RouteMode mode) const {
  if (subnodes.empty()) {
    return FailedPrecondition("DirectoryRef has no subnodes to route to");
  }
  size_t home = SubnodeIndex(oid);
  if (mode == RouteMode::kHashOnly || subnodes.size() < 2) {
    return subnodes[home];
  }
  size_t alternate = AlternateIndex(oid);
  // Ties go to the home subnode: it holds the authoritative state, so the
  // alternate's extra sideways hop is only worth paying under observed load.
  if (sim::LessLoaded(channel.PeerLoad(subnodes[alternate]),
                      channel.PeerLoad(subnodes[home]))) {
    return subnodes[alternate];
  }
  return subnodes[home];
}

// ------------------------------------------------------------ DirectorySubnode

DirectorySubnode::DirectorySubnode(sim::Transport* transport, sim::NodeId host,
                                   sim::DomainId domain, int depth, GlsOptions options,
                                   const sec::KeyRegistry* registry, uint64_t rng_seed)
    : server_(transport, host, sim::kPortGls),
      client_(std::make_unique<sim::Channel>(transport, host)),
      clock_(transport->clock()),
      domain_(domain),
      depth_(depth),
      options_(options),
      registry_(registry),
      rng_(rng_seed),
      store_(options.store_capacity),
      cache_(options.cache_ttl) {
  server_.set_service_time(options_.service_time);

  kGlsLookup.RegisterAsync(&server_, [this](const sim::RpcContext&,
                                            LookupWireRequest request,
                                            LookupResponder respond) {
    ++stats_.lookups;
    ResolveLookup(std::move(request), std::move(respond));
  });

  kGlsLookupAll.RegisterAsync(&server_, [this](const sim::RpcContext&,
                                               LookupWireRequest request,
                                               LookupResponder respond) {
    ++stats_.lookup_alls;
    ResolveLookupAll(std::move(request), std::move(respond));
  });

  kGlsInsert.RegisterAsync(&server_, [this](const sim::RpcContext& context,
                                            BatchAddressRequest request,
                                            EmptyResponder respond) {
    if (Status s = CheckAuthorized(context); !s.ok()) {
      ++stats_.denied;
      respond(s);
      return;
    }
    ++stats_.insert_requests;
    std::vector<ObjectId> to_propagate;
    std::set<ObjectId> seen;
    for (const auto& [oid, address] : request.items) {
      ++stats_.inserts;
      InvalidateCached(oid, /*quarantine=*/false);
      auto& at_oid = store_.Mutable(oid).addresses;
      if (std::find(at_oid.begin(), at_oid.end(), address) == at_oid.end()) {
        at_oid.push_back(address);
      }
      if (seen.insert(oid).second) {
        to_propagate.push_back(oid);
      }
    }
    PropagatePointerUp(to_propagate, std::move(respond));
  });

  kGlsDelete.RegisterAsync(&server_, [this](const sim::RpcContext& context,
                                            BatchAddressRequest request,
                                            EmptyResponder respond) {
    if (Status s = CheckAuthorized(context); !s.ok()) {
      ++stats_.denied;
      respond(s);
      return;
    }
    ++stats_.delete_requests;
    if (request.items.empty()) {
      respond(sim::EmptyMessage{});
      return;
    }
    EmptyCallback join = JoinEmpty(request.items.size(), std::move(respond));
    for (const auto& [oid, address] : request.items) {
      ApplyDelete(oid, address, join);
    }
  });

  kGlsInstallPtr.RegisterAsync(&server_, [this](const sim::RpcContext& context,
                                                BatchPointerRequest request,
                                                EmptyResponder respond) {
    if (Status s = CheckAuthorized(context); !s.ok()) {
      ++stats_.denied;
      respond(s);
      return;
    }
    std::vector<ObjectId> continue_up;
    std::vector<ObjectId> stale_chain;
    for (const ObjectId& oid : request.oids) {
      ++stats_.pointer_installs;
      InvalidateCached(oid, /*quarantine=*/false);
      bool was_new =
          store_.Mutable(oid).pointers.insert(request.child_domain).second;
      if (was_new && !parent_.empty()) {
        continue_up.push_back(oid);
      } else {
        stale_chain.push_back(oid);
      }
    }
    // Freshly installed pointers extend the chain above us. Where the chain
    // already ends (or we are the root), cached answers above and beside us may
    // still name only the farther replicas the OID had before this
    // registration: mirror the delete chain's inval fan-out so the new replica
    // becomes visible without waiting out the TTL. quarantine=false — fresh
    // lookups should re-cache the new set at once.
    EmptyCallback join = JoinEmpty(1 + stale_chain.size(), std::move(respond));
    PropagatePointerUp(continue_up, join);
    for (const ObjectId& oid : stale_chain) {
      if (options_.enable_cache) {
        ++stats_.insert_invals;
      }
      PropagateInvalUp(oid, /*include_siblings=*/true, /*quarantine=*/false,
                       join);
    }
  });

  kGlsRemovePtr.RegisterAsync(&server_, [this](const sim::RpcContext& context,
                                               PointerRequest request,
                                               EmptyResponder respond) {
    if (Status s = CheckAuthorized(context); !s.ok()) {
      ++stats_.denied;
      respond(s);
      return;
    }
    ++stats_.pointer_removes;
    InvalidateCached(request.oid, /*quarantine=*/true);
    if (DirectoryEntry* entry = store_.Find(request.oid)) {
      entry->pointers.erase(request.child_domain);
      if (entry->Empty()) {
        store_.Erase(request.oid);
      }
    }
    if (NumPointers(request.oid) == 0 && NumAddresses(request.oid) == 0) {
      PropagateRemoveUp(request.oid, std::move(respond));
      return;
    }
    // The chain stops pruning here, but subnodes above and beside us may still
    // cache the removed subtree's addresses.
    PropagateInvalUp(request.oid, /*include_siblings=*/true, /*quarantine=*/true,
                     std::move(respond));
  });

  kGlsInvalCache.RegisterAsync(&server_, [this](const sim::RpcContext& context,
                                                PointerRequest request,
                                                EmptyResponder respond) {
    // Cache purges are mutations of serving state: same authorization as the other
    // internal chain methods (a cached answer must never outlive a delete, but an
    // unauthenticated peer must not be able to flush caches either).
    if (Status s = CheckAuthorized(context); !s.ok()) {
      ++stats_.denied;
      respond(s);
      return;
    }
    InvalidateCached(request.oid, request.quarantine);
    if (IsAlternateFor(request.oid)) {
      // Our home sibling received the same fan-out and carries the chain upward.
      respond(sim::EmptyMessage{});
      return;
    }
    PropagateInvalUp(request.oid, /*include_siblings=*/false,
                     request.quarantine, std::move(respond));
  });

  kGlsScrubAddress.RegisterAsync(&server_, [this](const sim::RpcContext& context,
                                                  AddressRequest request,
                                                  EmptyResponder respond) {
    if (Status s = CheckAuthorized(context); !s.ok()) {
      ++stats_.denied;
      respond(s);
      return;
    }
    ScrubAddress(request.oid, request.address, std::move(respond));
  });

  kGlsAllocOid.Register(&server_,
                        [this](const sim::RpcContext&,
                               const sim::EmptyMessage&) -> Result<OidMessage> {
                          return OidMessage{ObjectId::Generate(&rng_)};
                        });

  // Ownership (fail-over) arbitration: claims and renewals are mutations of
  // serving state and carry the same authorization as the other write methods.
  kGlsClaimMaster.RegisterAsync(
      &server_, [this](const sim::RpcContext& context, MasterClaim request,
                       std::function<void(Result<ClaimOutcome>)> respond) {
        if (Status s = CheckAuthorized(context); !s.ok()) {
          ++stats_.denied;
          respond(s);
          return;
        }
        ResolveOwnership(/*is_claim=*/true, request, std::move(respond));
      });
  kGlsRenewLease.RegisterAsync(
      &server_, [this](const sim::RpcContext& context, MasterClaim request,
                       std::function<void(Result<ClaimOutcome>)> respond) {
        if (Status s = CheckAuthorized(context); !s.ok()) {
          ++stats_.denied;
          respond(s);
          return;
        }
        ResolveOwnership(/*is_claim=*/false, request, std::move(respond));
      });
}

void DirectorySubnode::SetSelf(DirectoryRef self) { self_ = std::move(self); }

bool DirectorySubnode::IsAlternateFor(const ObjectId& oid) const {
  return !self_.empty() && self_.subnodes[self_.SubnodeIndex(oid)] != endpoint();
}

std::vector<sim::Endpoint> DirectorySubnode::SiblingEndpoints() const {
  std::vector<sim::Endpoint> siblings;
  for (const sim::Endpoint& subnode : self_.subnodes) {
    if (subnode != endpoint()) {
      siblings.push_back(subnode);
    }
  }
  return siblings;
}

Status DirectorySubnode::CheckAuthorized(const sim::RpcContext& context) const {
  static constexpr sec::Role kHosts[] = {sec::Role::kGdnHost, sec::Role::kAdministrator};
  return options_.enforce_authorization ? sec::CheckRole(registry_, context, kHosts)
                                        : OkStatus();
}

const SubnodeStats& DirectorySubnode::stats() const {
  stats_.store_evictions = store_.evictions();
  stats_.store_fault_ins = store_.fault_ins();
  stats_.store_spilled_bytes = store_.spilled_bytes();
  stats_.store_peak_resident = store_.peak_resident();
  return stats_;
}

size_t DirectorySubnode::NumAddresses(const ObjectId& oid) const {
  DirectoryEntry scratch;
  const DirectoryEntry* entry = store_.Peek(oid, &scratch);
  return entry == nullptr ? 0 : entry->addresses.size();
}

size_t DirectorySubnode::NumPointers(const ObjectId& oid) const {
  DirectoryEntry scratch;
  const DirectoryEntry* entry = store_.Peek(oid, &scratch);
  return entry == nullptr ? 0 : entry->pointers.size();
}

uint64_t DirectorySubnode::OwnerEpoch(const ObjectId& oid) const {
  auto it = owners_.find(oid);
  return it == owners_.end() ? 0 : it->second.epoch;
}

uint64_t DirectorySubnode::OwnerVersionFloor(const ObjectId& oid) const {
  auto it = owners_.find(oid);
  return it == owners_.end() ? 0 : it->second.version_floor;
}

void DirectorySubnode::InvalidateCached(const ObjectId& oid, bool quarantine) {
  if (options_.enable_cache && cache_.Invalidate(oid, clock_->Now(), quarantine)) {
    ++stats_.cache_invalidations;
  }
}

void DirectorySubnode::ResolveLookup(LookupWireRequest req, LookupResponder respond) {
  req.apex_depth = std::min(req.apex_depth, depth_);

  // One store access serves both the address check here and the pointer check
  // below: lookups are what drives the LRU, so a spilled hot OID faults back in
  // on its first lookup and stays resident. The pointer stays valid across the
  // cache probes between the two checks (no other store call intervenes).
  const DirectoryEntry* entry = store_.Find(req.oid);

  // Contact address here: done. Authoritative state always wins over the cache.
  if (entry != nullptr && !entry->addresses.empty()) {
    ++stats_.found_local;
    LookupResult response;
    response.addresses = entry->addresses;
    response.hops = req.hops;
    response.found_depth = depth_;
    response.apex_depth = req.apex_depth;
    respond(std::move(response));
    return;
  }

  // Cached answer from an earlier descent or sideways handoff: done, without
  // re-walking the pointer chain. Every mutation touching the OID at this node
  // drops these entries, and delete chains fan out to all subnodes of a node.
  if (options_.enable_cache && req.allow_cached) {
    if (const LookupCache::Entry* entry = cache_.Get(req.oid, clock_->Now())) {
      if (entry->negative != 0) {
        // A recent climb said NotFound: absorb the repeat miss here instead of
        // re-climbing. Inserts and pointer installs at this node drop the
        // entry; elsewhere the short negative TTL bounds the false-negative
        // window.
        ++stats_.negative_cache_hits;
        respond(NotFound("object not registered: " + req.oid.ToHex()));
        return;
      }
      ++stats_.cache_hits;
      LookupResult response;
      response.addresses = entry->addresses;
      response.hops = req.hops;
      response.found_depth = entry->found_depth;
      response.apex_depth = req.apex_depth;
      response.from_cache = true;
      respond(std::move(response));
      return;
    }
    ++stats_.cache_misses;
  }

  // Forwarding pointer here: descend into one child subtree, chosen at random if
  // several replicas exist in different children (paper §3.5). The returned contact
  // addresses populate this subnode's lookup cache.
  if (entry != nullptr && !entry->pointers.empty()) {
    const auto& children = entry->pointers;
    size_t pick = static_cast<size_t>(rng_.UniformInt(children.size()));
    auto child_it = children.begin();
    std::advance(child_it, pick);
    auto ref_it = children_.find(*child_it);
    if (ref_it == children_.end() || ref_it->second.empty()) {
      respond(Internal("forwarding pointer to unknown child directory"));
      return;
    }
    auto target =
        ref_it->second.TryRoute(req.oid, *client_, options_.lookup_route_mode);
    if (!target.ok()) {
      respond(target.status());
      return;
    }
    ++stats_.forwards_down;
    LookupWireRequest forward = req;
    forward.phase = kPhaseDown;
    ++forward.hops;
    kGlsLookup.Call(client_.get(), *target, forward,
                    [this, oid = req.oid,
                     respond = std::move(respond)](Result<LookupResult> result) {
                      if (options_.enable_cache && result.ok() &&
                          !result->addresses.empty() && !result->from_cache) {
                        // Only authoritative answers enter the cache on descent:
                        // re-caching a descendant's cache hit would restart the TTL
                        // and compound staleness to depth x TTL.
                        cache_.Put(oid, result->addresses, result->found_depth,
                                   clock_->Now());
                      }
                      respond(std::move(result));
                    });
    return;
  }

  // No state for the OID here. If this subnode is not the OID's hash home on its
  // own node (power-of-two routing aimed the lookup at us for load spreading), the
  // lookup is handed sideways to the home sibling — but only where the home can
  // actually answer: on descent (the home must hold the forwarding pointer) and at
  // the root (nowhere left to climb). On a climb-path node the alternate climbs
  // directly instead, which is exactly what its home sibling would do, at zero
  // extra hops. The sideways answer is cached — cached or not at the home; a
  // re-cached home cache hit restarts the TTL, a deliberate 2x-TTL-at-one-node
  // staleness trade without which alternates could never absorb hot load — ONLY
  // when it was resolved within this level's subtree (apex did not rise above us):
  // exactly then the home holds the forwarding pointer, so this node's subnodes
  // are all covered by the delete-driven invalidation fan-out. An answer that
  // climbed must not be cached here, since no deregistration chain would ever
  // visit a pure climb-path node.
  if (IsAlternateFor(req.oid) && (req.phase == kPhaseDown || parent_.empty())) {
    ++stats_.forwards_sideways;
    LookupWireRequest forward = req;
    ++forward.hops;
    sim::Endpoint home = self_.subnodes[self_.SubnodeIndex(req.oid)];
    kGlsLookup.Call(client_.get(), home,
                    forward, [this, oid = req.oid, respond = std::move(respond)](
                                 Result<LookupResult> result) {
                      if (options_.enable_cache && result.ok() &&
                          !result->addresses.empty() && result->apex_depth >= depth_) {
                        cache_.Put(oid, result->addresses, result->found_depth,
                                   clock_->Now());
                      }
                      respond(std::move(result));
                    });
    return;
  }

  // Going down this should not happen; going up we continue to the parent until
  // the root gives a definitive answer.
  if (req.phase == kPhaseDown) {
    respond(Internal("broken forwarding chain at depth " + std::to_string(depth_)));
    return;
  }
  if (parent_.empty()) {
    respond(NotFound("object not registered: " + req.oid.ToHex()));
    return;
  }
  // Load-aware climbs target only the root: it is the one ancestor guaranteed to
  // hold a forwarding pointer for every registered OID, so its alternates can
  // absorb load from their sideways-filled caches. A mid-tree parent's alternate
  // would instead climb past its pointer-holding sibling, pushing the very traffic
  // power-of-two choices is meant to spread up to the root.
  RouteMode climb_mode =
      depth_ == 1 ? options_.lookup_route_mode : RouteMode::kHashOnly;
  auto target = parent_.TryRoute(req.oid, *client_, climb_mode);
  if (!target.ok()) {
    respond(target.status());
    return;
  }
  ++stats_.forwards_up;
  LookupWireRequest forward = req;
  ++forward.hops;
  kGlsLookup.Call(client_.get(), *target, forward,
                  [this, oid = req.oid,
                   respond = std::move(respond)](Result<LookupResult> result) {
                    if (options_.enable_cache && !result.ok() &&
                        result.status().code() == StatusCode::kNotFound) {
                      // Negative caching: a short-TTL NotFound entry absorbs
                      // repeat misses for this deleted/unknown OID. Invalidated
                      // by any insert/install_ptr that touches this subnode.
                      cache_.PutNegative(oid, clock_->Now());
                    }
                    respond(std::move(result));
                  });
}

void DirectorySubnode::ResolveLookupAll(LookupWireRequest req,
                                        LookupResponder respond) {
  req.apex_depth = std::min(req.apex_depth, depth_);

  // Climb strictly by hash to the OID's root home: the one node guaranteed to
  // hold a forwarding pointer for every registered address, which is what
  // makes the descent below exhaustive. No sideways handoff, no caches — an
  // enumeration answered from an alternate's cache could miss a registration
  // whose mutation chain never touched that subnode.
  if (req.phase == kPhaseUp && !parent_.empty()) {
    LookupWireRequest forward = req;
    ++forward.hops;
    kGlsLookupAll.Call(client_.get(), parent_.Route(req.oid), forward,
                       std::move(respond));
    return;
  }

  // Enumeration apex (the root, or the leaf of a depth-0 tree) and every node
  // on the way down: union the local addresses with the full set below EVERY
  // forwarding pointer — gls.lookup's random single-child descent is exactly
  // what a retire fan-out must not do.
  auto response = std::make_shared<LookupResult>();
  response->hops = req.hops;
  response->found_depth = depth_;
  response->apex_depth = req.apex_depth;
  std::vector<sim::Endpoint> targets;
  if (const DirectoryEntry* entry = store_.Find(req.oid)) {
    response->addresses = entry->addresses;
    for (sim::DomainId child_domain : entry->pointers) {
      auto ref_it = children_.find(child_domain);
      if (ref_it != children_.end() && !ref_it->second.empty()) {
        targets.push_back(ref_it->second.Route(req.oid));
      }
    }
  }

  if (targets.empty()) {
    if (req.phase == kPhaseUp && response->addresses.empty()) {
      respond(NotFound("object not registered: " + req.oid.ToHex()));
    } else {
      respond(std::move(*response));
    }
    return;
  }

  auto remaining = std::make_shared<size_t>(targets.size());
  auto shared_respond = std::make_shared<LookupResponder>(std::move(respond));
  LookupWireRequest forward = req;
  forward.phase = kPhaseDown;
  ++forward.hops;
  for (const sim::Endpoint& target : targets) {
    kGlsLookupAll.Call(
        client_.get(), target, forward,
        [response, remaining, shared_respond](Result<LookupResult> result) {
          if (result.ok()) {
            response->addresses.insert(response->addresses.end(),
                                       result->addresses.begin(),
                                       result->addresses.end());
            response->hops = std::max(response->hops, result->hops);
          }
          // A failed branch (partitioned subtree) yields a partial enumeration
          // rather than failing the whole walk: callers fence what they can
          // reach now; the unreachable replicas fence on their next contact.
          if (--*remaining == 0) {
            (*shared_respond)(std::move(*response));
          }
        });
  }
}

void DirectorySubnode::ResolveOwnership(
    bool is_claim, const MasterClaim& request,
    std::function<void(Result<ClaimOutcome>)> respond) {
  // Below the root: forward strictly by hash (never power-of-two — the record
  // must live at exactly one subnode) and relay the arbiter's answer.
  if (!parent_.empty()) {
    const auto& method = is_claim ? kGlsClaimMaster : kGlsRenewLease;
    method.Call(client_.get(), parent_.Route(request.oid), request,
                std::move(respond), sim::WriteCallOptions());
    return;
  }

  sim::SimTime now = clock_->Now();
  if (!is_claim) {
    ++stats_.lease_renewals;
    auto it = owners_.find(request.oid);
    if (it == owners_.end()) {
      if (request.known_epoch == 0) {
        respond(ClaimOutcome{false, 0, ContactAddress{}});
        return;
      }
      // The arbiter lost its record (restored from an older checkpoint):
      // re-seed from the incumbent rather than forcing an election.
      it = owners_.emplace(request.oid,
                           OwnerRecord{request.known_epoch, request.claimant, 0,
                                       request.version})
               .first;
    }
    OwnerRecord& rec = it->second;
    // Incumbency is per host, not per endpoint: a master rebuilt after a
    // reboot comes back on a fresh port of the same node. The renewal also
    // refreshes the recorded address, so losers always adopt a live endpoint.
    if (request.known_epoch == rec.epoch &&
        rec.master.endpoint.node == request.claimant.endpoint.node) {
      rec.master = request.claimant;
      rec.lease_expires_at = now + request.lease_duration;
      // The renewal raises the acked-write floor: electable successors must
      // hold at least this much replicated state. Quorum masters publish their
      // exact commit floor through this path BEFORE acking the write, which is
      // what makes the floor an acked-write invariant rather than a lagging
      // (up-to-one-lease_interval-stale) hint.
      rec.version_floor = std::max(rec.version_floor, request.version);
      respond(ClaimOutcome{true, rec.epoch, rec.master, rec.version_floor});
      return;
    }
    respond(ClaimOutcome{false, rec.epoch, rec.master, rec.version_floor});
    return;
  }

  ++stats_.master_claims;
  OwnerRecord& rec = owners_[request.oid];
  bool vacant = rec.epoch == 0;
  // Host-based incumbency (see the renewal path): a master that rebooted onto
  // a fresh port can resume its own mastership without waiting out the lease,
  // while claims from other hosts stay fenced until the lease lapses.
  bool incumbent =
      !vacant && rec.master.endpoint.node == request.claimant.endpoint.node;
  bool lease_lapsed = rec.lease_expires_at <= now;
  // A claimant presenting an epoch strictly ahead of the record proves the
  // record is behind (this arbiter restored from an old checkpoint): its claim
  // must win even over a live lease, or a re-seeded stale master could depose
  // the real one and roll back acknowledged writes.
  bool ahead = request.known_epoch > rec.epoch;
  // Version floor: a non-incumbent claimant below the acked-write high-water
  // mark the master reported is provably missing acknowledged writes (e.g. a
  // slave evicted from the push fan-out before it resynced) — electing it
  // would roll the group back. The incumbent is exempt: its checkpoint
  // restore is the one sanctioned rollback (acked-since-checkpoint loss is
  // the documented crash-rebuild semantics). Under a strict floor (quorum
  // mode) the exemption is off — the floor is exact and binding for everyone,
  // including an incumbent restored from a pre-floor checkpoint: it must
  // resync from a quorum member instead of rolling acked writes back.
  bool fresh_enough = (incumbent && !request.strict_floor) ||
                      request.version >= rec.version_floor;
  // The conditional update: the claimant's view must not be behind the record
  // (epoch fence), mastership must actually be takeable — vacant, lapsed,
  // already the claimant's (a restarted master resuming), or provably ahead —
  // and the claimant must hold enough replicated state.
  if (request.known_epoch >= rec.epoch &&
      (vacant || incumbent || lease_lapsed || ahead) && fresh_enough) {
    ContactAddress deposed = rec.master;
    rec.epoch = std::max(request.known_epoch, rec.epoch) + 1;
    rec.master = request.claimant;
    rec.lease_expires_at = now + request.lease_duration;
    // A lease-only grant adopts the winner's version outright (the sanctioned
    // incumbent-restore rollback); a strict-floor grant can only raise it —
    // acked writes outlive every election.
    rec.version_floor = request.strict_floor
                            ? std::max(rec.version_floor, request.version)
                            : request.version;
    ++stats_.master_claims_granted;
    // Re-election changes which address is authoritative: purge our cached
    // answer and our siblings' (and quarantine re-caching) before answering, so
    // no root subnode keeps serving the deposed master from cache.
    InvalidateCached(request.oid, /*quarantine=*/true);
    if (!vacant && deposed.endpoint != request.claimant.endpoint) {
      // The loser's leaf registration is now stale; a crashed master never
      // deletes it itself, so it would otherwise linger until restart. Scrub
      // it from the registration subtree in the background — fire-and-forget,
      // because the grant must not block on leaf round-trips, and the scrub is
      // idempotent if it races the deposed master's own cleanup.
      ++stats_.stale_scrubs;
      ScrubAddress(request.oid, deposed, [](Result<sim::EmptyMessage>) {});
    }
    ClaimOutcome response{true, rec.epoch, rec.master, rec.version_floor};
    PropagateInvalUp(request.oid, /*include_siblings=*/true, /*quarantine=*/true,
                     [respond = std::move(respond),
                      response](Result<sim::EmptyMessage>) { respond(response); });
    return;
  }
  respond(ClaimOutcome{false, rec.epoch, rec.master, rec.version_floor});
}

void DirectorySubnode::ApplyDelete(const ObjectId& oid, const ContactAddress& address,
                                   EmptyResponder respond) {
  ++stats_.deletes;
  DirectoryEntry* entry = store_.Find(oid);
  if (entry == nullptr) {
    respond(NotFound("no such contact address registered"));
    return;
  }
  auto& at_oid = entry->addresses;
  auto pos = std::find(at_oid.begin(), at_oid.end(), address);
  if (pos == at_oid.end()) {
    respond(NotFound("no such contact address registered"));
    return;
  }
  at_oid.erase(pos);
  InvalidateCached(oid, /*quarantine=*/true);
  if (!at_oid.empty()) {
    // Other addresses remain here; the chain stays, but caches above and beside us
    // must not keep serving the removed address.
    PropagateInvalUp(oid, /*include_siblings=*/true, /*quarantine=*/true,
                     std::move(respond));
    return;
  }
  // No addresses left here; if no pointers either, drop the entry and prune
  // the chain above.
  bool has_pointers = !entry->pointers.empty();
  if (entry->Empty()) {
    store_.Erase(oid);
  }
  if (has_pointers) {
    PropagateInvalUp(oid, /*include_siblings=*/true, /*quarantine=*/true,
                     std::move(respond));
    return;
  }
  PropagateRemoveUp(oid, std::move(respond));
}

void DirectorySubnode::ScrubAddress(const ObjectId& oid, const ContactAddress& address,
                                    EmptyResponder respond) {
  const DirectoryEntry* entry = store_.Find(oid);
  if (entry != nullptr &&
      std::find(entry->addresses.begin(), entry->addresses.end(), address) !=
          entry->addresses.end()) {
    // Registered here: run the ordinary delete, which also fires the coherence
    // chain (inval fan-out or pointer prune) the removal requires.
    ApplyDelete(oid, address, std::move(respond));
    return;
  }
  if (entry == nullptr || entry->pointers.empty()) {
    // Nothing registered below us either — the address is already gone
    // (the deposed master cleaned up itself, or a duplicate scrub landed).
    respond(sim::EmptyMessage{});
    return;
  }
  // Descend every branch of the registration subtree: the stale leaf entry is
  // under exactly one of them, and the others answer cheaply with "not here".
  std::vector<sim::Endpoint> targets;
  for (sim::DomainId child : entry->pointers) {
    auto ref_it = children_.find(child);
    if (ref_it != children_.end() && !ref_it->second.empty()) {
      targets.push_back(ref_it->second.Route(oid));
    }
  }
  if (targets.empty()) {
    respond(sim::EmptyMessage{});
    return;
  }
  EmptyCallback join = JoinEmpty(targets.size(), std::move(respond));
  AddressRequest down{oid, address};
  for (const sim::Endpoint& target : targets) {
    kGlsScrubAddress.Call(client_.get(), target, down, join, sim::WriteCallOptions());
  }
}

void DirectorySubnode::PropagatePointerUp(const std::vector<ObjectId>& oids,
                                          EmptyResponder respond) {
  if (parent_.empty() || oids.empty()) {
    respond(sim::EmptyMessage{});
    return;
  }
  std::map<size_t, std::vector<ObjectId>> groups;
  for (const ObjectId& oid : oids) {
    groups[parent_.SubnodeIndex(oid)].push_back(oid);
  }
  EmptyCallback join = JoinEmpty(groups.size(), std::move(respond));
  for (auto& [subnode_index, group] : groups) {
    BatchPointerRequest up{domain_, std::move(group)};
    kGlsInstallPtr.Call(client_.get(), parent_.subnodes[subnode_index], up, join,
                        sim::WriteCallOptions());
  }
}

void DirectorySubnode::PropagateRemoveUp(const ObjectId& oid, EmptyResponder respond) {
  // With caching on, this node's siblings may hold sideways-filled entries for the
  // OID; drop those alongside the upward prune.
  std::vector<sim::Endpoint> sibling_invals =
      options_.enable_cache ? SiblingEndpoints() : std::vector<sim::Endpoint>{};
  size_t calls = sibling_invals.size() + (parent_.empty() ? 0 : 1);
  if (calls == 0) {
    respond(sim::EmptyMessage{});
    return;
  }
  // Chain traffic retries on loss: a dropped remove_ptr would orphan the
  // pointer chain, and a dropped inval_cache would leave a sibling serving a
  // deregistered address from cache until its TTL — exactly the coherence the
  // delete fan-out exists to guarantee. remove_ptr is deduped server-side;
  // inval_cache is idempotent, so repeats are harmless either way.
  EmptyCallback join = JoinEmpty(calls, std::move(respond));
  PointerRequest up{oid, domain_};
  if (!parent_.empty()) {
    kGlsRemovePtr.Call(client_.get(), parent_.Route(oid), up, join,
                       sim::WriteCallOptions());
  }
  for (const sim::Endpoint& sibling : sibling_invals) {
    kGlsInvalCache.Call(client_.get(), sibling, up, join, sim::WriteCallOptions());
  }
}

void DirectorySubnode::PropagateInvalUp(const ObjectId& oid, bool include_siblings,
                                        bool quarantine, EmptyResponder respond) {
  // Without caching there is nothing stale anywhere: keep the old single-message
  // delete cost. With caching, the fan-out reaches every subnode of every ancestor
  // node (and optionally this node's siblings) so no subnode can serve the
  // deregistered address from its cache — the home subnode at each level carries
  // the chain further up, its siblings stop after invalidating locally.
  if (!options_.enable_cache) {
    respond(sim::EmptyMessage{});
    return;
  }
  std::vector<sim::Endpoint> targets;
  if (include_siblings) {
    for (const sim::Endpoint& sibling : SiblingEndpoints()) {
      targets.push_back(sibling);
    }
  }
  for (const sim::Endpoint& parent_subnode : parent_.subnodes) {
    targets.push_back(parent_subnode);
  }
  if (targets.empty()) {
    respond(sim::EmptyMessage{});
    return;
  }
  EmptyCallback join = JoinEmpty(targets.size(), std::move(respond));
  PointerRequest up{oid, domain_, quarantine};
  for (const sim::Endpoint& target : targets) {
    kGlsInvalCache.Call(client_.get(), target, up, join, sim::WriteCallOptions());
  }
}

Bytes DirectorySubnode::SaveState() const {
  // The wire format predates the merged store: addresses and pointers are two
  // separate sections. ForEachSorted visits in ascending OID order regardless
  // of hot/cold placement, so the checkpoint bytes are independent of the
  // access pattern that shaped the LRU.
  // One walk fills both sections; each is written behind its OID count.
  uint64_t addr_oids = 0;
  uint64_t ptr_oids = 0;
  ByteWriter addresses;
  ByteWriter pointers;
  store_.ForEachSorted([&](const ObjectId& oid, const DirectoryEntry& entry) {
    if (!entry.addresses.empty()) {
      ++addr_oids;
      wire::Put(&addresses, oid);
      wire::Put(&addresses, entry.addresses);
    }
    if (!entry.pointers.empty()) {
      ++ptr_oids;
      wire::Put(&pointers, oid);
      pointers.WriteVarint(entry.pointers.size());
      for (sim::DomainId child : entry.pointers) {
        pointers.WriteU32(child);
      }
    }
  });
  ByteWriter w;
  w.WriteVarint(addr_oids);
  w.WriteBytes(addresses.data());
  w.WriteVarint(ptr_oids);
  w.WriteBytes(pointers.data());
  cache_.Serialize(&w);
  // Master-ownership records: fail-over arbitration must survive an arbiter
  // reboot, or a rebuilt root would re-grant epoch 1 and unfence stale masters.
  // The map is hashed now; write in sorted OID order for a stable checkpoint.
  std::vector<const ObjectId*> owner_keys;
  owner_keys.reserve(owners_.size());
  for (const auto& [oid, unused] : owners_) {
    owner_keys.push_back(&oid);
  }
  std::sort(owner_keys.begin(), owner_keys.end(),
            [](const ObjectId* a, const ObjectId* b) { return *a < *b; });
  w.WriteVarint(owners_.size());
  for (const ObjectId* oid : owner_keys) {
    const OwnerRecord& rec = owners_.at(*oid);
    wire::Put(&w, *oid);
    w.WriteU64(rec.epoch);
    wire::Put(&w, rec.master);
    w.WriteU64(rec.lease_expires_at);
    w.WriteU64(rec.version_floor);
  }
  // The RPC server's at-most-once table rides along (the ROADMAP item): a
  // subnode rebuilt from this checkpoint still replays duplicates of mutations
  // the pre-crash server executed instead of running them twice.
  server_.SerializeDedup(&w);
  return w.Take();
}

Status DirectorySubnode::RestoreState(ByteSpan data) {
  ByteReader r(data);
  std::map<ObjectId, std::vector<ContactAddress>> addresses;
  std::map<ObjectId, std::set<sim::DomainId>> pointers;

  auto num_oids = r.ReadVarint();
  if (!num_oids.ok()) {
    return num_oids.status();
  }
  for (uint64_t i = 0; i < *num_oids; ++i) {
    ASSIGN_OR_RETURN(ObjectId oid, wire::Read<ObjectId>(&r));
    ASSIGN_OR_RETURN(addresses[oid], wire::Read<std::vector<ContactAddress>>(&r));
  }
  ASSIGN_OR_RETURN(uint64_t num_ptr_oids, r.ReadVarint());
  for (uint64_t i = 0; i < num_ptr_oids; ++i) {
    ASSIGN_OR_RETURN(ObjectId oid, wire::Read<ObjectId>(&r));
    ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
    auto& children = pointers[oid];
    for (uint64_t j = 0; j < count; ++j) {
      ASSIGN_OR_RETURN(uint32_t child, r.ReadU32());
      children.insert(child);
    }
  }
  // Trailing sections, each absent in checkpoints taken before the feature
  // existed: the lookup cache, the master-ownership records, the dedup table.
  // An empty value is a safe restore state for every one of them.
  LookupCache cache(options_.cache_ttl);
  if (!r.AtEnd()) {
    RETURN_IF_ERROR(cache.Restore(&r));
  }
  std::unordered_map<ObjectId, OwnerRecord, OidHash> owners;
  if (!r.AtEnd()) {
    ASSIGN_OR_RETURN(uint64_t num_owner_oids, r.ReadVarint());
    for (uint64_t i = 0; i < num_owner_oids; ++i) {
      ASSIGN_OR_RETURN(ObjectId oid, wire::Read<ObjectId>(&r));
      OwnerRecord rec;
      ASSIGN_OR_RETURN(rec.epoch, r.ReadU64());
      ASSIGN_OR_RETURN(rec.master, wire::Read<ContactAddress>(&r));
      ASSIGN_OR_RETURN(rec.lease_expires_at, r.ReadU64());
      ASSIGN_OR_RETURN(rec.version_floor, r.ReadU64());
      owners[oid] = rec;
    }
  }
  if (!r.AtEnd()) {
    RETURN_IF_ERROR(server_.RestoreDedup(&r));
  }
  // Rebuild the store only after every section parsed: a decode error must not
  // leave the subnode half-restored. Entries past the capacity spill to the
  // cold store as they would under live load.
  SubnodeStore store(options_.store_capacity);
  for (auto& [oid, at_oid] : addresses) {
    store.Mutable(oid).addresses = std::move(at_oid);
  }
  for (auto& [oid, children] : pointers) {
    store.Mutable(oid).pointers = std::move(children);
  }
  store_ = std::move(store);
  owners_ = std::move(owners);
  cache_ = std::move(cache);
  return OkStatus();
}

std::vector<std::pair<ObjectId, DirectoryEntry>> DirectorySubnode::ExportEntries()
    const {
  std::vector<std::pair<ObjectId, DirectoryEntry>> entries;
  entries.reserve(store_.Size());
  store_.ForEachSorted([&](const ObjectId& oid, const DirectoryEntry& entry) {
    entries.emplace_back(oid, entry);
  });
  return entries;
}

std::vector<std::pair<ObjectId, DirectorySubnode::OwnerRecord>>
DirectorySubnode::ExportOwners() const {
  std::vector<std::pair<ObjectId, OwnerRecord>> owners(owners_.begin(),
                                                       owners_.end());
  std::sort(owners.begin(), owners.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return owners;
}

void DirectorySubnode::ClearDirectoryState() {
  store_.Clear();
  owners_.clear();
  cache_.Clear();
}

void DirectorySubnode::ImportOwner(const ObjectId& oid, const OwnerRecord& record) {
  owners_[oid] = record;
}

// ---------------------------------------------------------------- GlsClient

namespace {

// Shared by InsertBatch and DeleteBatch: group the items by home subnode, issue one
// batch call per group, aggregate the first error.
void CallAddressBatches(
    sim::Channel* rpc, const DirectoryRef& leaf,
    const sim::TypedMethod<BatchAddressRequest, sim::EmptyMessage>& method,
    const std::vector<std::pair<ObjectId, ContactAddress>>& items,
    GlsClient::DoneCallback done) {
  if (leaf.empty()) {
    done(FailedPrecondition("GLS client has no leaf directory"));
    return;
  }
  if (items.empty()) {
    done(OkStatus());
    return;
  }
  std::map<size_t, BatchAddressRequest> groups;
  for (const auto& item : items) {
    groups[leaf.SubnodeIndex(item.first)].items.push_back(item);
  }
  EmptyCallback join =
      JoinEmpty(groups.size(), [done = std::move(done)](Result<sim::EmptyMessage> r) {
        done(r.ok() ? OkStatus() : r.status());
      });
  for (auto& [subnode_index, group] : groups) {
    method.Call(rpc, leaf.subnodes[subnode_index], group, join,
                sim::WriteCallOptions());
  }
}

}  // namespace

GlsClient::GlsClient(sim::Transport* transport, sim::NodeId node,
                     DirectoryRef leaf_directory)
    : rpc_(transport, node), leaf_(std::move(leaf_directory)) {}

void GlsClient::Lookup(const ObjectId& oid, LookupCallback done) {
  Lookup(oid, allow_cached_, std::move(done));
}

void GlsClient::Lookup(const ObjectId& oid, bool allow_cached, LookupCallback done) {
  auto target = leaf_.TryRoute(oid, rpc_, route_mode_);
  if (!target.ok()) {
    done(target.status());
    return;
  }
  LookupWireRequest request;
  request.oid = oid;
  request.allow_cached = allow_cached;
  kGlsLookup.Call(&rpc_, *target, request, std::move(done));
}

void GlsClient::LookupAll(const ObjectId& oid, LookupCallback done) {
  auto target = leaf_.TryRoute(oid);  // mutation-style routing: hash home only
  if (!target.ok()) {
    done(target.status());
    return;
  }
  LookupWireRequest request;
  request.oid = oid;
  kGlsLookupAll.Call(&rpc_, *target, request, std::move(done));
}

void GlsClient::Insert(const ObjectId& oid, const ContactAddress& address,
                       DoneCallback done) {
  InsertBatch({{oid, address}}, std::move(done));
}

void GlsClient::InsertBatch(
    const std::vector<std::pair<ObjectId, ContactAddress>>& items, DoneCallback done) {
  CallAddressBatches(&rpc_, leaf_, kGlsInsert, items, std::move(done));
}

void GlsClient::Delete(const ObjectId& oid, const ContactAddress& address,
                       DoneCallback done) {
  DeleteBatch({{oid, address}}, std::move(done));
}

void GlsClient::DeleteBatch(
    const std::vector<std::pair<ObjectId, ContactAddress>>& items, DoneCallback done) {
  CallAddressBatches(&rpc_, leaf_, kGlsDelete, items, std::move(done));
}

namespace {

// Shared by ClaimMaster and RenewMasterLease: route by hash to the leaf home
// subnode, which forwards to the root arbiter.
void CallOwnership(sim::Channel* rpc, const DirectoryRef& leaf,
                   const sim::TypedMethod<MasterClaim, ClaimOutcome>& method,
                   const MasterClaim& claim, GlsClient::ClaimCallback done) {
  auto target = leaf.TryRoute(claim.oid);
  if (!target.ok()) {
    done(target.status());
    return;
  }
  method.Call(rpc, *target, claim, std::move(done), sim::WriteCallOptions());
}

}  // namespace

void GlsClient::ClaimMaster(const MasterClaim& claim, ClaimCallback done) {
  CallOwnership(&rpc_, leaf_, kGlsClaimMaster, claim, std::move(done));
}

void GlsClient::RenewMasterLease(const MasterClaim& claim, ClaimCallback done) {
  CallOwnership(&rpc_, leaf_, kGlsRenewLease, claim, std::move(done));
}

void GlsClient::AllocateOid(OidCallback done) {
  if (leaf_.empty()) {
    done(FailedPrecondition("GLS client has no leaf directory"));
    return;
  }
  kGlsAllocOid.Call(&rpc_, leaf_.subnodes.front(), sim::EmptyMessage{},
                    [done = std::move(done)](Result<OidMessage> result) {
                      if (!result.ok()) {
                        done(result.status());
                        return;
                      }
                      done(result->oid);
                    },
                    sim::WriteCallOptions());
}

}  // namespace globe::gls
