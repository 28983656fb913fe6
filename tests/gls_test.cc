// Tests for the Globe Location Service: object identifiers, contact addresses, the
// directory-node tree (insert / lookup / delete with forwarding pointers), locality of
// lookups, subnode partitioning and live splits, the memory-bounded subnode store
// against a reference model, authorization, persistence and crash recovery.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <set>

#include "src/gls/deploy.h"
#include "src/gls/directory.h"
#include "src/gls/oid.h"
#include "src/sec/secure_transport.h"
#include "src/sim/rpc.h"
#include "src/sim/backend.h"

namespace globe::gls {
namespace {

using sim::BuildUniformWorld;
using sim::DomainId;
using sim::NodeId;
using sim::UniformWorld;

// ---------------------------------------------------------------- ObjectId

TEST(ObjectIdTest, GenerateIsUniqueEnough) {
  Rng rng(1);
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    seen.insert(ObjectId::Generate(&rng).ToHex());
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(ObjectIdTest, HexRoundTrip) {
  Rng rng(2);
  ObjectId oid = ObjectId::Generate(&rng);
  auto restored = ObjectId::FromHex(oid.ToHex());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, oid);
}

TEST(ObjectIdTest, FromHexRejectsBadInput) {
  EXPECT_FALSE(ObjectId::FromHex("xyz").ok());
  EXPECT_FALSE(ObjectId::FromHex("aabb").ok());  // too short
  EXPECT_FALSE(ObjectId::FromHex(std::string(34, 'a')).ok());
}

TEST(ObjectIdTest, NilDetection) {
  ObjectId nil;
  EXPECT_TRUE(nil.IsNil());
  Rng rng(3);
  EXPECT_FALSE(ObjectId::Generate(&rng).IsNil());
}

TEST(ObjectIdTest, SerializationRoundTrip) {
  Rng rng(4);
  ObjectId oid = ObjectId::Generate(&rng);
  ByteWriter w;
  wire::Put(&w, oid);
  ByteReader r(w.data());
  auto restored = wire::Read<ObjectId>(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, oid);
}

TEST(ObjectIdTest, HashSpreadsAcrossBuckets) {
  Rng rng(5);
  std::vector<int> buckets(8, 0);
  for (int i = 0; i < 8000; ++i) {
    buckets[ObjectId::Generate(&rng).Hash() % 8]++;
  }
  for (int count : buckets) {
    EXPECT_GT(count, 800);  // expected 1000; very loose balance bound
    EXPECT_LT(count, 1200);
  }
}

TEST(ContactAddressTest, SerializationRoundTrip) {
  ContactAddress address{{42, 700}, 3, ReplicaRole::kSlave};
  ByteWriter w;
  wire::Put(&w, address);
  ByteReader r(w.data());
  auto restored = wire::Read<ContactAddress>(&r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, address);
}

// ---------------------------------------------------------------- Directory tree

// World: 2 continents x 2 countries x 2 sites, 2 hosts per site. The GLS adds one
// directory host per domain.
class GlsTreeTest : public ::testing::Test {
 protected:
  GlsTreeTest()
      : world_(BuildUniformWorld({2, 2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        transport_(&network_),
        deployment_(&transport_, &world_.topology, nullptr),
        rng_(99) {}

  // Registers a replica of `oid` living on `host` and waits for completion.
  void InsertAt(const ObjectId& oid, NodeId host,
                ReplicaRole role = ReplicaRole::kMaster) {
    auto client = deployment_.MakeClient(host);
    Status status = InvalidArgument("pending");
    client->Insert(oid, ContactAddress{{host, sim::kPortGos}, 1, role},
                   [&](Status s) { status = s; });
    simulator_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  Result<LookupResult> LookupFrom(const ObjectId& oid, NodeId host) {
    auto client = deployment_.MakeClient(host);
    Result<LookupResult> out = Unavailable("pending");
    client->Lookup(oid, [&](Result<LookupResult> result) { out = std::move(result); });
    simulator_.Run();
    return out;
  }

  Status DeleteAt(const ObjectId& oid, NodeId host,
                  ReplicaRole role = ReplicaRole::kMaster) {
    auto client = deployment_.MakeClient(host);
    Status status = InvalidArgument("pending");
    client->Delete(oid, ContactAddress{{host, sim::kPortGos}, 1, role},
                   [&](Status s) { status = s; });
    simulator_.Run();
    return status;
  }

  sim::Simulator simulator_;
  UniformWorld world_;
  sim::Network network_;
  sim::PlainTransport transport_;
  GlsDeployment deployment_;
  Rng rng_;
};

TEST_F(GlsTreeTest, LookupFindsRegisteredReplica) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);

  auto result = LookupFrom(oid, world_.hosts[15]);  // other side of the world
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->addresses.size(), 1u);
  EXPECT_EQ(result->addresses[0].endpoint.node, world_.hosts[0]);
}

TEST_F(GlsTreeTest, LookupFromSameSiteIsLocal) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);

  auto result = LookupFrom(oid, world_.hosts[1]);  // same leaf domain
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hops, 0u);               // answered by the leaf directory itself
  EXPECT_EQ(result->found_depth, 3);         // leaf depth in this 3-level world
  EXPECT_EQ(result->apex_depth, 3);          // never left the leaf
}

TEST_F(GlsTreeTest, LookupCostGrowsWithDistance) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);

  auto same_site = LookupFrom(oid, world_.hosts[1]);
  auto same_country = LookupFrom(oid, world_.hosts[2]);
  auto same_continent = LookupFrom(oid, world_.hosts[4]);
  auto other_continent = LookupFrom(oid, world_.hosts[8]);
  ASSERT_TRUE(same_site.ok());
  ASSERT_TRUE(same_country.ok());
  ASSERT_TRUE(same_continent.ok());
  ASSERT_TRUE(other_continent.ok());

  // Hops: 0 at the leaf, then +2 per level of separation (up and back down).
  EXPECT_EQ(same_site->hops, 0u);
  EXPECT_EQ(same_country->hops, 2u);
  EXPECT_EQ(same_continent->hops, 4u);
  EXPECT_EQ(other_continent->hops, 6u);

  // The apex climbs exactly as far as the separation requires.
  EXPECT_EQ(same_country->apex_depth, 2);
  EXPECT_EQ(same_continent->apex_depth, 1);
  EXPECT_EQ(other_continent->apex_depth, 0);
}

TEST_F(GlsTreeTest, NearestOfTwoReplicasIsFound) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);   // continent 0
  InsertAt(oid, world_.hosts[8]);   // continent 1

  // A client on continent 1 must find the continent-1 replica without crossing the
  // root: its lookup stays inside its own subtree.
  auto result = LookupFrom(oid, world_.hosts[9]);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->addresses.size(), 1u);
  EXPECT_EQ(result->addresses[0].endpoint.node, world_.hosts[8]);
  EXPECT_LE(result->hops, 2u);
  EXPECT_GE(result->apex_depth, 2);
}

TEST_F(GlsTreeTest, UnknownOidIsNotFound) {
  ObjectId oid = ObjectId::Generate(&rng_);
  auto result = LookupFrom(oid, world_.hosts[3]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(GlsTreeTest, DeleteRemovesAddressAndPrunesChain) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  ASSERT_TRUE(LookupFrom(oid, world_.hosts[15]).ok());

  ASSERT_TRUE(DeleteAt(oid, world_.hosts[0]).ok());
  auto result = LookupFrom(oid, world_.hosts[15]);
  EXPECT_FALSE(result.ok());

  // Every directory entry for this OID is gone (pointer chain fully pruned).
  for (const auto& subnode : deployment_.subnodes()) {
    EXPECT_EQ(subnode->NumAddresses(oid), 0u) << subnode->domain();
    EXPECT_EQ(subnode->NumPointers(oid), 0u) << subnode->domain();
  }
}

TEST_F(GlsTreeTest, DeleteOneOfTwoReplicasKeepsTheOther) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  InsertAt(oid, world_.hosts[8]);
  ASSERT_TRUE(DeleteAt(oid, world_.hosts[0]).ok());

  auto result = LookupFrom(oid, world_.hosts[1]);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->addresses.size(), 1u);
  EXPECT_EQ(result->addresses[0].endpoint.node, world_.hosts[8]);
}

TEST_F(GlsTreeTest, DeleteUnknownAddressFails) {
  ObjectId oid = ObjectId::Generate(&rng_);
  EXPECT_EQ(DeleteAt(oid, world_.hosts[0]).code(), StatusCode::kNotFound);
}

TEST_F(GlsTreeTest, DuplicateInsertIsIdempotent) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  InsertAt(oid, world_.hosts[0]);
  auto result = LookupFrom(oid, world_.hosts[1]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->addresses.size(), 1u);
}

TEST_F(GlsTreeTest, TwoReplicasSameSiteReturnsBoth) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  InsertAt(oid, world_.hosts[1]);  // same leaf domain, different host
  auto result = LookupFrom(oid, world_.hosts[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->addresses.size(), 2u);
}

TEST_F(GlsTreeTest, AllocateOidReturnsFreshIds) {
  auto client = deployment_.MakeClient(world_.hosts[0]);
  std::set<std::string> ids;
  for (int i = 0; i < 5; ++i) {
    client->AllocateOid([&](Result<ObjectId> result) {
      ASSERT_TRUE(result.ok());
      ids.insert(result->ToHex());
    });
  }
  simulator_.Run();
  EXPECT_EQ(ids.size(), 5u);
}

// Property test over many objects and random placements: every registered replica is
// findable from every host, and lookups never climb higher than the root.
class GlsPropertyTest : public GlsTreeTest,
                        public ::testing::WithParamInterface<uint64_t> {};

// NOLINTNEXTLINE: gtest needs the fixture to inherit once more for params.
TEST_P(GlsPropertyTest, AllRegisteredReplicasAreFindable) {
  Rng rng(GetParam());
  std::vector<std::pair<ObjectId, NodeId>> placements;
  for (int i = 0; i < 20; ++i) {
    ObjectId oid = ObjectId::Generate(&rng);
    NodeId host = world_.hosts[rng.UniformInt(world_.hosts.size())];
    InsertAt(oid, host);
    placements.push_back({oid, host});
  }
  for (const auto& [oid, host] : placements) {
    NodeId from = world_.hosts[rng.UniformInt(world_.hosts.size())];
    auto result = LookupFrom(oid, from);
    ASSERT_TRUE(result.ok()) << oid.ToHex();
    ASSERT_EQ(result->addresses.size(), 1u);
    EXPECT_EQ(result->addresses[0].endpoint.node, host);
    EXPECT_GE(result->apex_depth, 0);
    EXPECT_LE(result->hops, 6u);  // 3 levels up + 3 down is the worst case
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlsPropertyTest, ::testing::Values(11, 22, 33));

// ---------------------------------------------------------------- Partitioning

TEST(GlsPartitionTest, SubnodesSplitTheLoad) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);

  GlsDeploymentOptions options;
  options.subnode_count = [&](DomainId, int depth) { return depth == 0 ? 4 : 1; };
  GlsDeployment deployment(&transport, &world.topology, nullptr, options);

  ASSERT_EQ(deployment.DirectoryFor(0).subnodes.size(), 4u);

  // Register objects on one continent, look them all up from the other: every lookup
  // crosses the root directory node.
  Rng rng(7);
  std::vector<ObjectId> oids;
  for (int i = 0; i < 64; ++i) {
    ObjectId oid = ObjectId::Generate(&rng);
    auto client = deployment.MakeClient(world.hosts[0]);
    client->Insert(oid, ContactAddress{{world.hosts[0], sim::kPortGos}, 1,
                                       ReplicaRole::kMaster},
                   [](Status) {});
    simulator.Run();
    oids.push_back(oid);
  }
  for (const auto& oid : oids) {
    auto client = deployment.MakeClient(world.hosts[7]);
    bool found = false;
    client->Lookup(oid, [&](Result<LookupResult> result) { found = result.ok(); });
    simulator.Run();
    EXPECT_TRUE(found);
  }

  // All four root subnodes carried some of the load, none carried all of it.
  auto root_subnodes = deployment.SubnodesOf(0);
  ASSERT_EQ(root_subnodes.size(), 4u);
  uint64_t total = 0;
  for (const auto* subnode : root_subnodes) {
    EXPECT_GT(subnode->stats().lookups, 0u);
    EXPECT_LT(subnode->stats().lookups, 64u);
    total += subnode->stats().lookups;
  }
  EXPECT_EQ(total, 64u);
}

// ---------------------------------------------------------------- Authorization

TEST(GlsAuthTest, UnauthenticatedRegistrationRejected) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sec::KeyRegistry registry;
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport plain(&network);
  sec::SecureTransport secure(&plain, &registry);

  GlsDeploymentOptions options;
  options.node_options.enforce_authorization = true;
  std::set<NodeId> gls_hosts;
  GlsDeployment deployment(&secure, &world.topology, &registry, options,
                           [&](NodeId host) {
                             gls_hosts.insert(host);
                             secure.SetNodeCredential(
                                 host,
                                 registry.Register("gls-host", sec::Role::kGdnHost));
                           });

  // GOS host with a proper GdnHost credential; attacker host with none.
  NodeId gos_host = world.hosts[0];
  NodeId attacker = world.hosts[3];
  secure.SetNodeCredential(gos_host, registry.Register("gos-0", sec::Role::kGdnHost));
  auto is_host = [&](NodeId n) {
    return gls_hosts.count(n) > 0 || n == gos_host;
  };
  secure.SetChannelPolicy([&](NodeId src, NodeId dst) {
    sec::ChannelConfig config;
    if (is_host(src) && is_host(dst)) {
      config.auth = sec::AuthMode::kMutualAuth;
    } else if (is_host(dst)) {
      config.auth = sec::AuthMode::kServerAuth;  // attacker gets only server auth
    }
    return config;
  });

  Rng rng(8);
  ObjectId oid = ObjectId::Generate(&rng);

  // Legitimate insert from the GOS host succeeds.
  GlsClient good(&secure, gos_host, deployment.LeafDirectoryFor(gos_host));
  Status good_status = InvalidArgument("pending");
  good.Insert(oid, ContactAddress{{gos_host, sim::kPortGos}, 1, ReplicaRole::kMaster},
              [&](Status s) { good_status = s; });
  simulator.Run();
  EXPECT_TRUE(good_status.ok()) << good_status;

  // Forged registration from the attacker host is refused.
  ObjectId evil_oid = ObjectId::Generate(&rng);
  GlsClient bad(&secure, attacker, deployment.LeafDirectoryFor(attacker));
  Status bad_status = OkStatus();
  bad.Insert(evil_oid, ContactAddress{{attacker, sim::kPortGos}, 1, ReplicaRole::kMaster},
             [&](Status s) { bad_status = s; });
  simulator.Run();
  EXPECT_EQ(bad_status.code(), StatusCode::kPermissionDenied);

  // And so is a forged deregistration of the legitimate replica.
  Status del_status = OkStatus();
  bad.Delete(oid, ContactAddress{{gos_host, sim::kPortGos}, 1, ReplicaRole::kMaster},
             [&](Status s) { del_status = s; });
  simulator.Run();
  EXPECT_EQ(del_status.code(), StatusCode::kPermissionDenied);

  // The legitimate address is still there.
  GlsClient check(&secure, world.hosts[1], deployment.LeafDirectoryFor(world.hosts[1]));
  bool found = false;
  check.Lookup(oid, [&](Result<LookupResult> result) { found = result.ok(); });
  simulator.Run();
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- Persistence

TEST_F(GlsTreeTest, SaveAndRestoreState) {
  ObjectId oid_a = ObjectId::Generate(&rng_);
  ObjectId oid_b = ObjectId::Generate(&rng_);
  InsertAt(oid_a, world_.hosts[0]);
  InsertAt(oid_b, world_.hosts[2]);

  for (const auto& subnode : deployment_.subnodes()) {
    Bytes saved = subnode->SaveState();
    size_t entries_before = subnode->TotalEntries();
    // Restore into the same node (simulating reconstruct-after-reboot).
    ASSERT_TRUE(subnode->RestoreState(saved).ok());
    EXPECT_EQ(subnode->TotalEntries(), entries_before);
  }

  // Lookups still work after every node was "rebooted".
  EXPECT_TRUE(LookupFrom(oid_a, world_.hosts[14]).ok());
  EXPECT_TRUE(LookupFrom(oid_b, world_.hosts[14]).ok());
}

TEST_F(GlsTreeTest, RestoreRejectsGarbage) {
  auto& subnode = deployment_.subnodes().front();
  Bytes garbage = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01};
  EXPECT_FALSE(subnode->RestoreState(garbage).ok());
}

// ---------------------------------------------------------------- Lookup cache

TEST(LookupCacheTest, PutGetExpireRoundTrip) {
  LookupCache cache(/*ttl=*/100, /*max_entries=*/8);
  Rng rng(21);
  ObjectId oid = ObjectId::Generate(&rng);
  ContactAddress address{{7, sim::kPortGos}, 1, ReplicaRole::kMaster};

  EXPECT_EQ(cache.Get(oid, 0), nullptr);
  cache.Put(oid, {address}, /*found_depth=*/3, /*now=*/10);
  const auto* entry = cache.Get(oid, 50);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->addresses, std::vector<ContactAddress>{address});
  EXPECT_EQ(entry->found_depth, 3);
  EXPECT_EQ(cache.Get(oid, 110), nullptr);  // expired at 10 + 100
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LookupCacheTest, InvalidateQuarantinesReadmission) {
  LookupCache cache(/*ttl=*/1000 * sim::kSecond, /*max_entries=*/8);
  Rng rng(22);
  ObjectId oid = ObjectId::Generate(&rng);
  ContactAddress address{{7, sim::kPortGos}, 1, ReplicaRole::kMaster};

  cache.Put(oid, {address}, 3, /*now=*/0);
  EXPECT_TRUE(cache.Invalidate(oid, /*now=*/sim::kSecond));
  EXPECT_EQ(cache.Get(oid, sim::kSecond), nullptr);

  // A response that was in flight when the invalidation ran must not re-install
  // the entry...
  cache.Put(oid, {address}, 3, sim::kSecond + 1);
  EXPECT_EQ(cache.Get(oid, sim::kSecond + 2), nullptr);

  // ...but after the quarantine lapses, fresh authoritative answers cache again.
  sim::SimTime later = sim::kSecond + LookupCache::kPutQuarantine;
  cache.Put(oid, {address}, 3, later);
  EXPECT_NE(cache.Get(oid, later + 1), nullptr);
}

TEST(LookupCacheTest, EvictsSoonestToExpireWhenFull) {
  LookupCache cache(/*ttl=*/1000, /*max_entries=*/2);
  Rng rng(23);
  ObjectId a = ObjectId::Generate(&rng);
  ObjectId b = ObjectId::Generate(&rng);
  ObjectId c = ObjectId::Generate(&rng);
  ContactAddress address{{7, sim::kPortGos}, 1, ReplicaRole::kMaster};

  cache.Put(a, {address}, 3, /*now=*/0);
  cache.Put(b, {address}, 3, /*now=*/10);
  cache.Put(c, {address}, 3, /*now=*/20);  // evicts a (soonest to expire)
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.Get(a, 30), nullptr);
  EXPECT_NE(cache.Get(b, 30), nullptr);
  EXPECT_NE(cache.Get(c, 30), nullptr);
}

// Same world as GlsTreeTest, but every directory subnode runs its TTL'd lookup
// cache (src/gls/cache.h).
class GlsCacheTest : public ::testing::Test {
 protected:
  // TTLs are virtual time. Answered calls erase their deadline events, so a drained
  // synchronous step advances the clock by round-trip time only.
  explicit GlsCacheTest(sim::SimTime ttl = 600 * sim::kSecond)
      : world_(BuildUniformWorld({2, 2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        transport_(&network_),
        deployment_(&transport_, &world_.topology, nullptr, CacheOptions(ttl)),
        rng_(1234) {}

  static GlsDeploymentOptions CacheOptions(sim::SimTime ttl) {
    GlsDeploymentOptions options;
    options.node_options.enable_cache = true;
    options.node_options.cache_ttl = ttl;
    return options;
  }

  void InsertAt(const ObjectId& oid, NodeId host) {
    auto client = deployment_.MakeClient(host);
    Status status = InvalidArgument("pending");
    client->Insert(oid, ContactAddress{{host, sim::kPortGos}, 1, ReplicaRole::kMaster},
                   [&](Status s) { status = s; });
    simulator_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  Result<LookupResult> LookupFrom(const ObjectId& oid, NodeId host, bool allow_cached) {
    auto client = deployment_.MakeClient(host);
    client->set_allow_cached(allow_cached);
    Result<LookupResult> out = Unavailable("pending");
    client->Lookup(oid, [&](Result<LookupResult> result) { out = std::move(result); });
    simulator_.Run();
    return out;
  }

  Status DeleteAt(const ObjectId& oid, NodeId host) {
    auto client = deployment_.MakeClient(host);
    Status status = InvalidArgument("pending");
    client->Delete(oid, ContactAddress{{host, sim::kPortGos}, 1, ReplicaRole::kMaster},
                   [&](Status s) { status = s; });
    simulator_.Run();
    return status;
  }

  sim::Simulator simulator_;
  UniformWorld world_;
  sim::Network network_;
  sim::PlainTransport transport_;
  GlsDeployment deployment_;
  Rng rng_;
};

TEST_F(GlsCacheTest, CachedLookupSavesDescentHops) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);

  // First cached lookup from the other continent walks the full path (3 up + 3
  // down); the descent populates caches at the replica-side pointer holders.
  auto cold = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_EQ(cold->hops, 6u);
  EXPECT_FALSE(cold->from_cache);

  // The repeat stops at the apex (root) cache: only the 3 upward hops remain.
  auto warm = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_TRUE(warm.ok()) << warm.status();
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(warm->hops, 3u);
  EXPECT_EQ(warm->addresses, cold->addresses);
  EXPECT_GE(deployment_.TotalStats().cache_hits, 1u);
}

TEST_F(GlsCacheTest, LookupWithoutAllowCachedIgnoresWarmCache) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  ASSERT_TRUE(LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true).ok());

  auto strict = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/false);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->from_cache);
  EXPECT_EQ(strict->hops, 6u);  // full walk despite the warm cache
}

TEST_F(GlsCacheTest, LookupAfterDeleteNeverServesStaleCache) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true).ok());
  }

  ASSERT_TRUE(DeleteAt(oid, world_.hosts[0]).ok());
  uint64_t positive_hits_after_delete = deployment_.TotalStats().cache_hits;
  auto result = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  // That miss may plant short-TTL negative entries on its climb path; what must
  // be gone everywhere is any positive entry still naming the deleted address —
  // repeat lookups stay NotFound and never hit a positive cache entry.
  auto repeat = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_FALSE(repeat.ok());
  EXPECT_EQ(repeat.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(deployment_.TotalStats().cache_hits, positive_hits_after_delete);
}

TEST_F(GlsCacheTest, PartialDeleteInvalidatesAncestorCaches) {
  // Two replicas in sibling sites of one country; the delete of one stops pruning
  // at the country node, but the gls.inval_cache chain still reaches the root.
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);  // site 0 of country 0
  InsertAt(oid, world_.hosts[2]);  // site 1 of country 0
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true).ok());
  }

  ASSERT_TRUE(DeleteAt(oid, world_.hosts[0]).ok());
  for (int i = 0; i < 5; ++i) {
    auto result = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->addresses.size(), 1u);
    EXPECT_EQ(result->addresses[0].endpoint.node, world_.hosts[2])
        << "stale cached address for the deleted replica";
  }
}

TEST_F(GlsCacheTest, InsertInvalidatesWarmCachesWithoutWaitingTtl) {
  // One replica, then a warm apex cache for a far-away looker. Registering a
  // second replica must drop that cached single-address answer immediately
  // (the install chain's inval fan-out, quarantine=false), not after the
  // 600 s TTL: the very next cached-allowed lookup re-walks authoritatively.
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);  // site 0 of country 0
  ASSERT_TRUE(LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true).ok());
  auto warm = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_TRUE(warm.ok()) << warm.status();
  ASSERT_TRUE(warm->from_cache);  // the stale answer the insert must kill

  InsertAt(oid, world_.hosts[2]);  // site 1 of country 0
  EXPECT_GT(deployment_.TotalStats().insert_invals, 0u);

  // Fresh descent, not the warm entry. Either replica is a correct answer
  // (descent picks one branch at random); what may not happen is a cache hit
  // still naming only the pre-insert set.
  auto result = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->from_cache);
  ASSERT_EQ(result->addresses.size(), 1u);
  NodeId found = result->addresses[0].endpoint.node;
  EXPECT_TRUE(found == world_.hosts[0] || found == world_.hosts[2]) << found;
}

class GlsCacheShortTtlTest : public GlsCacheTest {
 protected:
  GlsCacheShortTtlTest() : GlsCacheTest(120 * sim::kSecond) {}
};

TEST_F(GlsCacheShortTtlTest, CacheEntryExpiresAfterTtl) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  ASSERT_TRUE(LookupFrom(oid, world_.hosts[8], true).ok());

  auto warm = LookupFrom(oid, world_.hosts[8], true);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);

  // Let virtual time pass the TTL; the entry must lapse back to a full walk.
  simulator_.ScheduleAfter(300 * sim::kSecond, [] {});
  simulator_.Run();
  auto expired = LookupFrom(oid, world_.hosts[8], true);
  ASSERT_TRUE(expired.ok());
  EXPECT_FALSE(expired->from_cache);
  EXPECT_EQ(expired->hops, 6u);
}

TEST_F(GlsCacheTest, CacheStateRoundTripsThroughSaveRestore) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  ASSERT_TRUE(LookupFrom(oid, world_.hosts[8], true).ok());

  auto root_subnodes = deployment_.SubnodesOf(0);
  ASSERT_EQ(root_subnodes.size(), 1u);
  auto* root = const_cast<DirectorySubnode*>(root_subnodes[0]);
  ASSERT_GE(root->CacheSize(), 1u);

  size_t cached_before = root->CacheSize();
  Bytes saved = root->SaveState();
  ASSERT_TRUE(root->RestoreState(saved).ok());
  EXPECT_EQ(root->CacheSize(), cached_before);

  // The restored cache still answers: the repeat lookup stays a 3-hop apex hit.
  uint64_t hits_before = root->stats().cache_hits;
  auto warm = LookupFrom(oid, world_.hosts[8], true);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);
  EXPECT_EQ(root->stats().cache_hits, hits_before + 1);
}

// ---------------------------------------------------------------- Batch RPCs

TEST_F(GlsTreeTest, InsertBatchRegistersAllInOneRoundTrip) {
  std::vector<std::pair<ObjectId, ContactAddress>> items;
  for (int i = 0; i < 8; ++i) {
    items.emplace_back(ObjectId::Generate(&rng_),
                       ContactAddress{{world_.hosts[0], sim::kPortGos}, 1,
                                      ReplicaRole::kMaster});
  }
  auto client = deployment_.MakeClient(world_.hosts[0]);
  Status status = Unavailable("pending");
  client->InsertBatch(items, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;

  // The leaf subnode saw one batch message carrying all eight registrations.
  DomainId leaf_domain = world_.topology.NodeDomain(world_.hosts[0]);
  auto leaf_subnodes = deployment_.SubnodesOf(leaf_domain);
  ASSERT_EQ(leaf_subnodes.size(), 1u);
  EXPECT_EQ(leaf_subnodes[0]->stats().insert_requests, 1u);
  EXPECT_EQ(leaf_subnodes[0]->stats().inserts, 8u);

  // Every registration is findable from the other side of the world.
  for (const auto& [oid, address] : items) {
    auto result = LookupFrom(oid, world_.hosts[15]);
    ASSERT_TRUE(result.ok()) << oid.ToHex() << ": " << result.status();
    ASSERT_EQ(result->addresses.size(), 1u);
    EXPECT_EQ(result->addresses[0], address);
  }
}

// Cached lookups and batch mutations keep the §6.1 authorization requirement:
// warm caches must not let an unauthenticated peer mutate the directory, and the
// denial shows up in stats().denied like every other refused mutation.
TEST(GlsAuthTest, CachedAndBatchedPathsStillDenyUnauthenticated) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sec::KeyRegistry registry;
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport plain(&network);
  sec::SecureTransport secure(&plain, &registry);

  GlsDeploymentOptions options;
  options.node_options.enforce_authorization = true;
  options.node_options.enable_cache = true;
  options.node_options.cache_ttl = 600 * sim::kSecond;
  std::set<NodeId> gls_hosts;
  GlsDeployment deployment(&secure, &world.topology, &registry, options,
                           [&](NodeId host) {
                             gls_hosts.insert(host);
                             secure.SetNodeCredential(
                                 host,
                                 registry.Register("gls-host", sec::Role::kGdnHost));
                           });

  NodeId gos_host = world.hosts[0];
  NodeId attacker = world.hosts[7];
  secure.SetNodeCredential(gos_host, registry.Register("gos-0", sec::Role::kGdnHost));
  auto is_host = [&](NodeId n) { return gls_hosts.count(n) > 0 || n == gos_host; };
  secure.SetChannelPolicy([&](NodeId src, NodeId dst) {
    sec::ChannelConfig config;
    if (is_host(src) && is_host(dst)) {
      config.auth = sec::AuthMode::kMutualAuth;
    } else if (is_host(dst)) {
      config.auth = sec::AuthMode::kServerAuth;
    }
    return config;
  });

  Rng rng(5);
  ObjectId oid = ObjectId::Generate(&rng);
  ContactAddress good_address{{gos_host, sim::kPortGos}, 1, ReplicaRole::kMaster};

  // Authorized batch registration succeeds.
  GlsClient good(&secure, gos_host, deployment.LeafDirectoryFor(gos_host));
  Status good_status = Unavailable("pending");
  good.InsertBatch({{oid, good_address}}, [&](Status s) { good_status = s; });
  simulator.Run();
  ASSERT_TRUE(good_status.ok()) << good_status;

  // Warm the caches with a cross-continent cached lookup (reads are open).
  GlsClient reader(&secure, world.hosts[6], deployment.LeafDirectoryFor(world.hosts[6]));
  reader.set_allow_cached(true);
  bool warmed = false;
  reader.Lookup(oid, [&](Result<LookupResult> r) { warmed = r.ok(); });
  simulator.Run();
  ASSERT_TRUE(warmed);

  uint64_t denied_before = deployment.TotalStats().denied;

  // Unauthenticated batch insert and delete are refused on the cached path.
  GlsClient bad(&secure, attacker, deployment.LeafDirectoryFor(attacker));
  ObjectId evil = ObjectId::Generate(&rng);
  Status batch_status = OkStatus();
  bad.InsertBatch({{evil, ContactAddress{{attacker, sim::kPortGos}, 1,
                                         ReplicaRole::kMaster}}},
                  [&](Status s) { batch_status = s; });
  simulator.Run();
  EXPECT_EQ(batch_status.code(), StatusCode::kPermissionDenied);

  Status delete_status = OkStatus();
  bad.Delete(oid, good_address, [&](Status s) { delete_status = s; });
  simulator.Run();
  EXPECT_EQ(delete_status.code(), StatusCode::kPermissionDenied);

  EXPECT_GE(deployment.TotalStats().denied, denied_before + 2);

  // The cached read path still serves the legitimate address.
  Result<LookupResult> still = Unavailable("pending");
  reader.Lookup(oid, [&](Result<LookupResult> r) { still = std::move(r); });
  simulator.Run();
  ASSERT_TRUE(still.ok()) << still.status();
  ASSERT_EQ(still->addresses.size(), 1u);
  EXPECT_EQ(still->addresses[0], good_address);
  EXPECT_TRUE(still->from_cache);
}

// ---------------------------------------------------------------- Routing

TEST_F(GlsTreeTest, EmptyDirectoryRefFailsGracefully) {
  Rng rng(3);
  ObjectId oid = ObjectId::Generate(&rng);
  DirectoryRef empty;
  EXPECT_FALSE(empty.TryRoute(oid).ok());

  // A client wired to an empty ref reports the error instead of dividing by zero.
  GlsClient client(&transport_, world_.hosts[0], DirectoryRef{});
  Status lookup_status = OkStatus();
  client.Lookup(oid, [&](Result<LookupResult> r) { lookup_status = r.status(); });
  EXPECT_EQ(lookup_status.code(), StatusCode::kFailedPrecondition);

  Status insert_status = OkStatus();
  client.Insert(oid, ContactAddress{}, [&](Status s) { insert_status = s; });
  EXPECT_EQ(insert_status.code(), StatusCode::kFailedPrecondition);

  Status alloc_status = OkStatus();
  client.AllocateOid([&](Result<ObjectId> r) { alloc_status = r.status(); });
  EXPECT_EQ(alloc_status.code(), StatusCode::kFailedPrecondition);

  Status batch_status = OkStatus();
  client.InsertBatch({{oid, ContactAddress{}}}, [&](Status s) { batch_status = s; });
  EXPECT_EQ(batch_status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(GlsTreeTest, CrashedDirectoryMakesLookupsFailThenRecoverAfterRestart) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);

  // Find the leaf directory subnode for host 0's domain and checkpoint it.
  DomainId leaf_domain = world_.topology.NodeDomain(world_.hosts[0]);
  auto leaf_subnodes = deployment_.SubnodesOf(leaf_domain);
  ASSERT_EQ(leaf_subnodes.size(), 1u);
  const DirectorySubnode* leaf = leaf_subnodes[0];
  Bytes checkpoint = leaf->SaveState();

  // Crash the directory host: lookups from afar now fail (the chain dead-ends).
  network_.SetNodeUp(leaf->host(), false);
  auto client = deployment_.MakeClient(world_.hosts[15]);
  Status status = OkStatus();
  client->Lookup(oid, [&](Result<LookupResult> result) { status = result.status(); });
  simulator_.Run();
  EXPECT_FALSE(status.ok());

  // Restart and reconstruct from the checkpoint: lookups succeed again.
  network_.SetNodeUp(leaf->host(), true);
  ASSERT_TRUE(const_cast<DirectorySubnode*>(leaf)->RestoreState(checkpoint).ok());
  auto result = LookupFrom(oid, world_.hosts[15]);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->addresses[0].endpoint.node, world_.hosts[0]);
}

// ---------------------------------------------------------------- DeleteBatch

TEST_F(GlsTreeTest, DeleteBatchDeregistersAllInOneRoundTrip) {
  std::vector<std::pair<ObjectId, ContactAddress>> items;
  for (int i = 0; i < 8; ++i) {
    items.emplace_back(
        ObjectId::Generate(&rng_),
        ContactAddress{{world_.hosts[0], sim::kPortGos}, 1, ReplicaRole::kMaster});
  }
  auto client = deployment_.MakeClient(world_.hosts[0]);
  Status status = Unavailable("pending");
  client->InsertBatch(items, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;

  status = Unavailable("pending");
  client->DeleteBatch(items, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;

  // The leaf subnode saw one batch message carrying all eight deregistrations.
  DomainId leaf_domain = world_.topology.NodeDomain(world_.hosts[0]);
  auto leaf_subnodes = deployment_.SubnodesOf(leaf_domain);
  ASSERT_EQ(leaf_subnodes.size(), 1u);
  EXPECT_EQ(leaf_subnodes[0]->stats().delete_requests, 1u);
  EXPECT_EQ(leaf_subnodes[0]->stats().deletes, 8u);
  EXPECT_EQ(leaf_subnodes[0]->TotalEntries(), 0u);

  // Every registration is gone, all the way up the tree.
  for (const auto& [oid, address] : items) {
    auto result = LookupFrom(oid, world_.hosts[15]);
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound) << oid.ToHex();
  }
  for (const auto& subnode : deployment_.subnodes()) {
    for (const auto& [oid, address] : items) {
      EXPECT_EQ(subnode->NumPointers(oid), 0u);
    }
  }
}

TEST_F(GlsTreeTest, DeleteBatchSurfacesMissingAddresses) {
  ObjectId registered = ObjectId::Generate(&rng_);
  InsertAt(registered, world_.hosts[0]);
  ContactAddress address{{world_.hosts[0], sim::kPortGos}, 1, ReplicaRole::kMaster};

  std::vector<std::pair<ObjectId, ContactAddress>> items = {
      {registered, address}, {ObjectId::Generate(&rng_), address}};
  auto client = deployment_.MakeClient(world_.hosts[0]);
  Status status = OkStatus();
  client->DeleteBatch(items, [&](Status s) { status = s; });
  simulator_.Run();
  // The unknown item's NotFound surfaces, but the registered one was deleted.
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(LookupFrom(registered, world_.hosts[15]).status().code(),
            StatusCode::kNotFound);
}

TEST_F(GlsCacheTest, DeleteBatchInvalidatesCachePerDeletedOid) {
  std::vector<std::pair<ObjectId, ContactAddress>> items;
  for (int i = 0; i < 4; ++i) {
    items.emplace_back(
        ObjectId::Generate(&rng_),
        ContactAddress{{world_.hosts[0], sim::kPortGos}, 1, ReplicaRole::kMaster});
    InsertAt(items.back().first, world_.hosts[0]);
  }
  // Warm the caches along the cross-continent path, then verify a hit.
  for (const auto& [oid, address] : items) {
    ASSERT_TRUE(LookupFrom(oid, world_.hosts[15], /*allow_cached=*/true).ok());
  }
  auto warm = LookupFrom(items[0].first, world_.hosts[15], /*allow_cached=*/true);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->from_cache);

  auto client = deployment_.MakeClient(world_.hosts[0]);
  Status status = Unavailable("pending");
  client->DeleteBatch(items, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;

  // No subnode anywhere may serve any of the deleted OIDs from its cache.
  for (const auto& [oid, address] : items) {
    auto after = LookupFrom(oid, world_.hosts[15], /*allow_cached=*/true);
    EXPECT_EQ(after.status().code(), StatusCode::kNotFound) << oid.ToHex();
  }
}

// ------------------------------------------------------- power-of-two routing

class GlsP2cTest : public ::testing::Test {
 protected:
  GlsP2cTest()
      : world_(BuildUniformWorld({2, 2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        transport_(&network_),
        deployment_(&transport_, &world_.topology, nullptr, P2cOptions()),
        rng_(4242) {}

  static GlsDeploymentOptions P2cOptions() {
    GlsDeploymentOptions options;
    options.node_options.enable_cache = true;
    options.node_options.cache_ttl = 600 * sim::kSecond;
    options.node_options.lookup_route_mode = RouteMode::kPowerOfTwoChoices;
    // Every directory node is partitioned so each level has an alternate.
    options.subnode_count = [](DomainId, int) { return 2; };
    return options;
  }

  uint64_t TotalSideways() const {
    uint64_t total = 0;
    for (const auto& subnode : deployment_.subnodes()) {
      total += subnode->stats().forwards_sideways;
    }
    return total;
  }

  sim::Simulator simulator_;
  UniformWorld world_;
  sim::Network network_;
  sim::PlainTransport transport_;
  GlsDeployment deployment_;
  Rng rng_;
};

TEST_F(GlsP2cTest, BurstLookupsSucceedViaAlternateSubnodes) {
  ObjectId oid = ObjectId::Generate(&rng_);
  ContactAddress address{{world_.hosts[0], sim::kPortGos}, 1, ReplicaRole::kMaster};
  auto insert_client = deployment_.MakeClient(world_.hosts[0]);
  Status status = Unavailable("pending");
  insert_client->Insert(oid, address, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;

  // A burst of concurrent cross-continent lookups: outstanding depth builds up on
  // the home subnodes, so power-of-two choices diverts part of the burst to the
  // alternates, which hand the lookups sideways to their home siblings (and cache
  // the answers). Every lookup must still find the correct address.
  auto lookup_client = deployment_.MakeClient(world_.hosts[15]);
  lookup_client->set_route_mode(RouteMode::kPowerOfTwoChoices);
  lookup_client->set_allow_cached(true);
  int ok = 0, wrong = 0;
  for (int i = 0; i < 16; ++i) {
    lookup_client->Lookup(oid, [&](Result<LookupResult> result) {
      if (result.ok() && result->addresses.size() == 1 &&
          result->addresses[0] == address) {
        ++ok;
      } else {
        ++wrong;
      }
    });
  }
  simulator_.Run();
  EXPECT_EQ(ok, 16);
  EXPECT_EQ(wrong, 0);
  EXPECT_GE(TotalSideways(), 1u);
}

TEST_F(GlsP2cTest, DeleteInvalidatesAlternateSubnodeCachesToo) {
  ObjectId oid = ObjectId::Generate(&rng_);
  ContactAddress address{{world_.hosts[0], sim::kPortGos}, 1, ReplicaRole::kMaster};
  auto insert_client = deployment_.MakeClient(world_.hosts[0]);
  Status status = Unavailable("pending");
  insert_client->Insert(oid, address, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;

  // Two bursts warm both home and alternate caches at every level.
  auto lookup_client = deployment_.MakeClient(world_.hosts[15]);
  lookup_client->set_route_mode(RouteMode::kPowerOfTwoChoices);
  lookup_client->set_allow_cached(true);
  for (int burst = 0; burst < 2; ++burst) {
    for (int i = 0; i < 16; ++i) {
      lookup_client->Lookup(oid, [](Result<LookupResult>) {});
    }
    simulator_.Run();
  }

  status = Unavailable("pending");
  insert_client->Delete(oid, address, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;

  // After the delete's fan-out, no subnode — home or alternate, at any level — may
  // serve the deregistered address, cached or otherwise.
  for (int i = 0; i < 16; ++i) {
    lookup_client->Lookup(oid, [&](Result<LookupResult> result) {
      EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
    });
  }
  simulator_.Run();
  for (const auto& subnode : deployment_.subnodes()) {
    EXPECT_EQ(subnode->NumAddresses(oid), 0u);
    EXPECT_EQ(subnode->NumPointers(oid), 0u);
  }
}

TEST_F(GlsTreeTest, HashOnlyRoutingNeverForwardsSideways) {
  ObjectId oid = ObjectId::Generate(&rng_);
  InsertAt(oid, world_.hosts[0]);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(LookupFrom(oid, world_.hosts[15]).ok());
  }
  for (const auto& subnode : deployment_.subnodes()) {
    EXPECT_EQ(subnode->stats().forwards_sideways, 0u);
  }
}

// ---------------------------------------------------------- Negative caching

TEST_F(GlsCacheTest, NegativeCacheAbsorbsRepeatMisses) {
  ObjectId oid = ObjectId::Generate(&rng_);

  // First miss climbs to the root; the NotFound answer plants short-TTL
  // negative entries at every node that forwarded the climb.
  auto first = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kNotFound);
  uint64_t climbs_after_first = deployment_.TotalStats().forwards_up;
  EXPECT_GT(climbs_after_first, 0u);

  // The repeat miss is absorbed at the leaf: NotFound again, zero new climbs.
  auto repeat = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_FALSE(repeat.ok());
  EXPECT_EQ(repeat.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(deployment_.TotalStats().forwards_up, climbs_after_first);
  EXPECT_GE(deployment_.TotalStats().negative_cache_hits, 1u);

  // A lookup that does not allow cached answers still re-walks and is never
  // served the negative entry.
  auto strict = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/false);
  ASSERT_FALSE(strict.ok());
  EXPECT_GT(deployment_.TotalStats().forwards_up, climbs_after_first);

  // Registering the OID in the looker's own domain invalidates the negative
  // entries on the whole install chain (leaf included): the next cached lookup
  // resolves immediately.
  InsertAt(oid, world_.hosts[9]);  // same site (and leaf) as hosts[8]
  auto found = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_TRUE(found.ok()) << found.status();
  ASSERT_EQ(found->addresses.size(), 1u);
  EXPECT_EQ(found->addresses[0].endpoint.node, world_.hosts[9]);
}

TEST_F(GlsCacheTest, NegativeEntriesExpireAfterTheirShortTtl) {
  ObjectId oid = ObjectId::Generate(&rng_);
  ASSERT_FALSE(LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true).ok());

  // Register the OID on the OTHER continent: its install chain never touches
  // hosts[8]'s climb path, so the stale negative entry is served...
  InsertAt(oid, world_.hosts[0]);
  auto stale = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_FALSE(stale.ok());
  EXPECT_EQ(stale.status().code(), StatusCode::kNotFound);

  // ...only until the short negative TTL lapses; then the lookup resolves.
  sim::SimTime negative_ttl = LookupCache::kDefaultNegativeTtl;
  simulator_.ScheduleAfter(negative_ttl + sim::kSecond, [] {});
  simulator_.Run();
  auto fresh = LookupFrom(oid, world_.hosts[8], /*allow_cached=*/true);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(fresh->addresses.size(), 1u);
  EXPECT_EQ(fresh->addresses[0].endpoint.node, world_.hosts[0]);
}

// ------------------------------------------------- Master-ownership records

class GlsOwnershipTest : public GlsTreeTest {
 protected:
  Result<ClaimOutcome> Claim(const ObjectId& oid, const ContactAddress& claimant,
                             uint64_t known_epoch, NodeId from, bool renew = false,
                             uint64_t version = 0) {
    auto client = deployment_.MakeClient(from);
    MasterClaim claim{oid, claimant, known_epoch, version,
                      /*lease_duration=*/5 * sim::kSecond};
    Result<ClaimOutcome> out = Unavailable("pending");
    auto done = [&](Result<ClaimOutcome> result) { out = std::move(result); };
    if (renew) {
      client->RenewMasterLease(claim, done);
    } else {
      client->ClaimMaster(claim, done);
    }
    simulator_.Run();
    return out;
  }

  const DirectorySubnode* Root() const {
    for (const auto& subnode : deployment_.subnodes()) {
      if (subnode->depth() == 0) {
        return subnode.get();
      }
    }
    return nullptr;
  }
};

TEST_F(GlsOwnershipTest, ClaimMasterArbitratesEpochsAndLeases) {
  Rng rng(7);
  ObjectId oid = ObjectId::Generate(&rng);
  ContactAddress a{{world_.hosts[0], sim::kPortGos}, 2, ReplicaRole::kMaster};
  ContactAddress b{{world_.hosts[10], sim::kPortGos}, 2, ReplicaRole::kMaster};

  // Vacant record: the first claim wins epoch 1.
  auto first = Claim(oid, a, /*known_epoch=*/0, world_.hosts[0]);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->granted);
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(first->master.endpoint, a.endpoint);

  // A rival with the right epoch but an unexpired incumbent lease is refused
  // and told who holds mastership.
  auto rival = Claim(oid, b, /*known_epoch=*/1, world_.hosts[10]);
  ASSERT_TRUE(rival.ok());
  EXPECT_FALSE(rival->granted);
  EXPECT_EQ(rival->epoch, 1u);
  EXPECT_EQ(rival->master.endpoint, a.endpoint);

  // A stale-epoch claim is refused regardless of the lease.
  auto stale = Claim(oid, b, /*known_epoch=*/0, world_.hosts[10]);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->granted);

  // Once the incumbent's lease lapses, the same rival claim is granted epoch 2.
  simulator_.ScheduleAfter(6 * sim::kSecond, [] {});
  simulator_.Run();
  auto takeover = Claim(oid, b, /*known_epoch=*/1, world_.hosts[10]);
  ASSERT_TRUE(takeover.ok());
  EXPECT_TRUE(takeover->granted);
  EXPECT_EQ(takeover->epoch, 2u);

  // The deposed master's renewal is rejected and names the winner; the
  // incumbent's own renewal extends the lease.
  auto deposed = Claim(oid, a, /*known_epoch=*/1, world_.hosts[0], /*renew=*/true);
  ASSERT_TRUE(deposed.ok());
  EXPECT_FALSE(deposed->granted);
  EXPECT_EQ(deposed->epoch, 2u);
  EXPECT_EQ(deposed->master.endpoint, b.endpoint);
  auto renewed = Claim(oid, b, /*known_epoch=*/2, world_.hosts[10], /*renew=*/true);
  ASSERT_TRUE(renewed.ok());
  EXPECT_TRUE(renewed->granted);

  // All arbitration happened at the OID's root home subnode.
  const DirectorySubnode* root = Root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->OwnerEpoch(oid), 2u);
  EXPECT_EQ(root->stats().master_claims, 4u);
  EXPECT_EQ(root->stats().master_claims_granted, 2u);
  EXPECT_EQ(root->stats().lease_renewals, 2u);
}

TEST_F(GlsOwnershipTest, TakeoverScrubsDeposedMastersLeafRegistration) {
  Rng rng(11);
  ObjectId oid = ObjectId::Generate(&rng);
  // Claimant addresses match what InsertAt registers, so the ownership record's
  // deposed master IS the leaf registration the scrub must find.
  ContactAddress a{{world_.hosts[0], sim::kPortGos}, 1, ReplicaRole::kMaster};
  ContactAddress b{{world_.hosts[10], sim::kPortGos}, 1, ReplicaRole::kMaster};

  InsertAt(oid, world_.hosts[0]);
  ASSERT_TRUE(Claim(oid, a, /*known_epoch=*/0, world_.hosts[0])->granted);
  auto before = LookupFrom(oid, world_.hosts[10]);
  ASSERT_TRUE(before.ok()) << before.status();
  ASSERT_EQ(before->addresses.size(), 1u);
  EXPECT_EQ(before->addresses[0].endpoint.node, world_.hosts[0]);

  // A crashes without deregistering; its lease lapses and B takes over. The
  // grant must scrub A's now-stale leaf entry in the background (the Claim
  // helper drains the simulator, which includes the fire-and-forget chain) —
  // otherwise lookups keep routing clients to a dead master until A restarts.
  simulator_.ScheduleAfter(6 * sim::kSecond, [] {});
  simulator_.Run();
  auto takeover = Claim(oid, b, /*known_epoch=*/1, world_.hosts[10]);
  ASSERT_TRUE(takeover.ok()) << takeover.status();
  ASSERT_TRUE(takeover->granted);

  auto gone = LookupFrom(oid, world_.hosts[10]);
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  const DirectorySubnode* root = Root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->stats().stale_scrubs, 1u);

  // Once the winner registers itself, lookups see exactly the new master —
  // no lingering trace of the deposed one.
  InsertAt(oid, world_.hosts[10]);
  auto fresh = LookupFrom(oid, world_.hosts[3]);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(fresh->addresses.size(), 1u);
  EXPECT_EQ(fresh->addresses[0].endpoint.node, world_.hosts[10]);
}

TEST_F(GlsOwnershipTest, VersionFloorBlocksStaleClaimants) {
  Rng rng(9);
  ObjectId oid = ObjectId::Generate(&rng);
  ContactAddress a{{world_.hosts[0], sim::kPortGos}, 2, ReplicaRole::kMaster};
  ContactAddress b{{world_.hosts[10], sim::kPortGos}, 2, ReplicaRole::kMaster};

  ASSERT_TRUE(Claim(oid, a, 0, world_.hosts[0])->granted);
  // The incumbent's renewal reports 7 acked writes: the floor rises.
  ASSERT_TRUE(
      Claim(oid, a, 1, world_.hosts[0], /*renew=*/true, /*version=*/7)->granted);

  simulator_.ScheduleAfter(6 * sim::kSecond, [] {});
  simulator_.Run();  // the lease lapses: mastership is takeable

  // A claimant missing acked writes (version 3 < floor 7) is refused even
  // though the lease lapsed; one at the floor is elected.
  auto stale = Claim(oid, b, 1, world_.hosts[10], /*renew=*/false, /*version=*/3);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->granted);
  auto fresh = Claim(oid, b, 1, world_.hosts[10], /*renew=*/false, /*version=*/7);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->granted);
  EXPECT_EQ(fresh->epoch, 2u);

  // The incumbent exemption: A (same host) may resume below the floor — its
  // checkpoint restore is the sanctioned rollback.
  simulator_.ScheduleAfter(6 * sim::kSecond, [] {});
  simulator_.Run();
  auto resume = Claim(oid, a, 2, world_.hosts[0], /*renew=*/false, /*version=*/0);
  ASSERT_TRUE(resume.ok());
  EXPECT_FALSE(resume->granted);  // wrong: a is not the incumbent any more
  auto b_resume = Claim(oid, b, 2, world_.hosts[10], /*renew=*/false, /*version=*/0);
  ASSERT_TRUE(b_resume.ok());
  EXPECT_TRUE(b_resume->granted);  // b IS the incumbent: exempt from the floor
}

TEST_F(GlsOwnershipTest, OwnershipAndDedupSurviveSaveRestore) {
  Rng rng(8);
  ObjectId oid = ObjectId::Generate(&rng);
  ContactAddress a{{world_.hosts[0], sim::kPortGos}, 2, ReplicaRole::kMaster};
  ASSERT_TRUE(Claim(oid, a, 0, world_.hosts[0])->granted);

  DirectorySubnode* root = const_cast<DirectorySubnode*>(Root());
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->OwnerEpoch(oid), 1u);
  // The claim is non-idempotent, so the arbitration left a dedup entry behind.
  size_t dedup_before = root->DedupEntries();
  EXPECT_GT(dedup_before, 0u);

  Bytes checkpoint = root->SaveState();
  ASSERT_TRUE(root->RestoreState(checkpoint).ok());

  // The record and the dedup table both survived the rebuild: a fresh epoch-0
  // claim is still refused, and the at-most-once history is intact.
  EXPECT_EQ(root->OwnerEpoch(oid), 1u);
  EXPECT_EQ(root->DedupEntries(), dedup_before);
  ContactAddress b{{world_.hosts[10], sim::kPortGos}, 2, ReplicaRole::kMaster};
  auto rejected = Claim(oid, b, /*known_epoch=*/0, world_.hosts[10]);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected->granted);
  EXPECT_EQ(rejected->master.endpoint, a.endpoint);
}

// ---------------------------------------------------------------- Bounded store

// The memory-bounded subnode store: entries beyond the capacity spill to the
// cold store and must keep behaving exactly like resident ones — found by
// lookups (fault-in), mutable by inserts and deletes, and carried through a
// SaveState/RestoreState reboot. Nothing registered is ever lost.
TEST(GlsBoundedStoreTest, EvictedEntrySurvivesLookupMutationAndCheckpoint) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);

  GlsDeploymentOptions options;
  options.node_options.store_capacity = 4;
  GlsDeployment deployment(&transport, &world.topology, nullptr, options);

  auto insert = [&](const ObjectId& oid, NodeId host) {
    auto client = deployment.MakeClient(host);
    Status status = Unavailable("pending");
    client->Insert(oid, ContactAddress{{host, sim::kPortGos}, 1, ReplicaRole::kMaster},
                   [&](Status s) { status = s; });
    simulator.Run();
    EXPECT_TRUE(status.ok()) << status;
  };
  auto lookup = [&](const ObjectId& oid, NodeId host) {
    auto client = deployment.MakeClient(host);
    Result<LookupResult> out = Unavailable("pending");
    client->Lookup(oid, [&](Result<LookupResult> r) { out = std::move(r); });
    simulator.Run();
    return out;
  };

  // Four times the capacity, all on host 0's leaf: the leaf's address entries
  // and every ancestor's pointer entries must spill.
  Rng rng(71);
  std::vector<ObjectId> oids;
  for (int i = 0; i < 16; ++i) {
    oids.push_back(ObjectId::Generate(&rng));
    insert(oids.back(), world.hosts[0]);
  }
  SubnodeStats after_inserts = deployment.TotalStats();
  EXPECT_GT(after_inserts.store_evictions, 0u);
  for (const auto& subnode : deployment.subnodes()) {
    EXPECT_LE(subnode->stats().store_peak_resident, 4u)
        << "subnode for domain " << subnode->domain();
  }

  // The coldest entry (first registered, 12 inserts ago) was evicted; a remote
  // lookup still finds it by faulting it back in.
  auto cold = lookup(oids[0], world.hosts[7]);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold->addresses.size(), 1u);
  EXPECT_GT(deployment.TotalStats().store_fault_ins, after_inserts.store_fault_ins);

  // Evicted entries accept mutations: add a second replica, then remove it.
  insert(oids[1], world.hosts[1]);  // hosts[0] and [1] share the leaf domain
  auto doubled = lookup(oids[1], world.hosts[7]);
  ASSERT_TRUE(doubled.ok());
  EXPECT_EQ(doubled->addresses.size(), 2u);
  {
    auto client = deployment.MakeClient(world.hosts[1]);
    Status status = Unavailable("pending");
    client->Delete(oids[1],
                   ContactAddress{{world.hosts[1], sim::kPortGos}, 1,
                                  ReplicaRole::kMaster},
                   [&](Status s) { status = s; });
    simulator.Run();
    EXPECT_TRUE(status.ok()) << status;
  }

  // Checkpoint every subnode and rebuild it in place: resident and spilled
  // entries alike survive the reboot.
  for (const auto& subnode : deployment.subnodes()) {
    size_t entries_before = subnode->TotalEntries();
    Bytes saved = subnode->SaveState();
    ASSERT_TRUE(subnode->RestoreState(saved).ok());
    EXPECT_EQ(subnode->TotalEntries(), entries_before);
    EXPECT_LE(subnode->StoreResidentEntries(), 4u);
  }

  // Zero lost registrations: every object still resolves to exactly one
  // address from the far continent after the reboot.
  for (const auto& oid : oids) {
    auto result = lookup(oid, world.hosts[6]);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->addresses.size(), 1u);
  }
}

// ---------------------------------------------------------------- SubnodeStore model

bool SameEntry(const DirectoryEntry& a, const DirectoryEntry& b) {
  return a.addresses == b.addresses && a.pointers == b.pointers;
}

// The store's documented behaviour, spelled out on plain containers: every
// entry in an ordered map, the resident OIDs in an LRU list (front = most
// recently used), and the four counters.
class StoreModel {
 public:
  explicit StoreModel(size_t capacity) : capacity_(capacity) {}

  // Mutable (`create`) or Find: promote a resident entry; fault in a spilled
  // one or create a new one at the LRU front, then evict past the capacity.
  DirectoryEntry* Access(const ObjectId& oid, bool create) {
    bool known = entries_.count(oid) > 0;
    if (!known && !create) {
      return nullptr;
    }
    if (auto pos = std::find(lru_.begin(), lru_.end(), oid); pos != lru_.end()) {
      lru_.splice(lru_.begin(), lru_, pos);
      return &entries_[oid];
    }
    if (known) {
      ++fault_ins;
    }
    entries_[oid];
    lru_.push_front(oid);
    while (capacity_ > 0 && lru_.size() > capacity_) {
      const ObjectId victim = lru_.back();
      lru_.pop_back();
      if (entries_[victim].Empty()) {
        entries_.erase(victim);  // empty entries are dropped, not spilled
      } else {
        ++evictions;
        spilled_bytes += SubnodeStore::SerializeEntry(entries_[victim]).size();
      }
    }
    peak_resident = std::max(peak_resident, lru_.size());
    return &entries_[oid];
  }

  const DirectoryEntry* Peek(const ObjectId& oid) const {
    auto it = entries_.find(oid);
    return it == entries_.end() ? nullptr : &it->second;
  }

  void Erase(const ObjectId& oid) {
    entries_.erase(oid);
    lru_.remove(oid);
  }

  const std::map<ObjectId, DirectoryEntry>& entries() const { return entries_; }
  size_t resident() const { return lru_.size(); }
  size_t items() const {
    size_t total = 0;
    for (const auto& [oid, entry] : entries_) {
      total += entry.addresses.size() + entry.pointers.size();
    }
    return total;
  }

  uint64_t evictions = 0;
  uint64_t fault_ins = 0;
  uint64_t spilled_bytes = 0;
  size_t peak_resident = 0;

 private:
  size_t capacity_;
  std::map<ObjectId, DirectoryEntry> entries_;
  std::list<ObjectId> lru_;
};

// Random Mutable/Find/Peek/Erase sequences against the model: after every
// step the store's sorted contents, item count, resident count and counters
// must be the model's. Which entries are resident, and in which LRU order,
// shows in the counters: a wrong victim or a missed promotion changes a later
// step's evictions or fault-ins.
TEST(SubnodeStoreModelTest, MatchesReferenceAtEveryStep) {
  for (size_t capacity : {0, 1, 2, 7}) {
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE("capacity " + std::to_string(capacity) + " seed " +
                   std::to_string(seed));
      Rng rng(seed * 1000 + capacity);
      // Twice the capacity and more, so that entries spill and fault back in.
      std::vector<ObjectId> pool;
      for (size_t i = 0; i < 8 + 2 * capacity; ++i) {
        pool.push_back(ObjectId::Generate(&rng));
      }
      SubnodeStore store(capacity);
      StoreModel model(capacity);

      // One random edit, applied to the store's entry and the model's alike.
      auto mutate = [&](DirectoryEntry* a, DirectoryEntry* b) {
        uint64_t kind = rng.UniformInt(5);
        auto node = static_cast<sim::NodeId>(rng.UniformInt(4));
        auto domain = static_cast<sim::DomainId>(rng.UniformInt(4));
        for (DirectoryEntry* entry : {a, b}) {
          switch (kind) {
            case 0: {
              ContactAddress address{{node, sim::kPortGos}, 1, ReplicaRole::kMaster};
              if (std::find(entry->addresses.begin(), entry->addresses.end(),
                            address) == entry->addresses.end()) {
                entry->addresses.push_back(address);
              }
              break;
            }
            case 1:
              entry->pointers.insert(domain);
              break;
            case 2:
              entry->pointers.erase(domain);
              break;
            case 3:
              entry->addresses.clear();
              break;
            default:
              break;  // leave it as it is (a new entry stays empty)
          }
        }
      };

      for (int step = 0; step < 500; ++step) {
        const ObjectId& oid = pool[rng.UniformInt(pool.size())];
        uint64_t op = rng.UniformInt(20);  // Mutable 8, Find 6, Peek 3, Erase 3
        switch (op < 8 ? 0 : op < 14 ? 1 : op < 17 ? 2 : 3) {
          case 0: {  // Mutable, edit, and (mostly) erase what ends empty
            DirectoryEntry& entry = store.Mutable(oid);
            DirectoryEntry* expected = model.Access(oid, /*create=*/true);
            ASSERT_TRUE(SameEntry(entry, *expected)) << "step " << step;
            mutate(&entry, expected);
            if (entry.Empty() && rng.UniformInt(4) != 0) {
              store.Erase(oid);
              model.Erase(oid);
            }
            break;
          }
          case 1: {  // Find, then sometimes edit through it
            DirectoryEntry* entry = store.Find(oid);
            DirectoryEntry* expected = model.Access(oid, /*create=*/false);
            ASSERT_EQ(entry == nullptr, expected == nullptr) << "step " << step;
            if (entry != nullptr) {
              ASSERT_TRUE(SameEntry(*entry, *expected)) << "step " << step;
              if (rng.UniformInt(2) == 0) {
                mutate(entry, expected);
              }
            }
            break;
          }
          case 2: {  // Peek
            DirectoryEntry scratch;
            const DirectoryEntry* entry = store.Peek(oid, &scratch);
            const DirectoryEntry* expected = model.Peek(oid);
            ASSERT_EQ(entry == nullptr, expected == nullptr) << "step " << step;
            if (entry != nullptr) {
              ASSERT_TRUE(SameEntry(*entry, *expected)) << "step " << step;
            }
            break;
          }
          default:
            store.Erase(oid);
            model.Erase(oid);
            break;
        }

        std::vector<std::pair<ObjectId, DirectoryEntry>> visited;
        store.ForEachSorted([&](const ObjectId& key, const DirectoryEntry& entry) {
          visited.emplace_back(key, entry);
        });
        ASSERT_EQ(visited.size(), model.entries().size()) << "step " << step;
        auto expected = model.entries().begin();
        for (const auto& [key, entry] : visited) {
          ASSERT_EQ(key, expected->first) << "step " << step;
          ASSERT_TRUE(SameEntry(entry, expected->second)) << "step " << step;
          ++expected;
        }
        ASSERT_EQ(store.ItemCount(), model.items()) << "step " << step;
        ASSERT_EQ(store.Size(), model.entries().size()) << "step " << step;
        ASSERT_EQ(store.ResidentSize(), model.resident()) << "step " << step;
        if (capacity > 0) {
          ASSERT_LE(store.ResidentSize(), capacity) << "step " << step;
        }
        ASSERT_EQ(store.evictions(), model.evictions) << "step " << step;
        ASSERT_EQ(store.fault_ins(), model.fault_ins) << "step " << step;
        ASSERT_EQ(store.spilled_bytes(), model.spilled_bytes) << "step " << step;
        ASSERT_EQ(store.peak_resident(), model.peak_resident) << "step " << step;
      }
      if (capacity > 0) {
        EXPECT_GT(store.evictions(), 0u);
        EXPECT_GT(store.fault_ins(), 0u);
      }
    }
  }
}

// ---------------------------------------------------------------- Live splits

// Splits a bounded root directory node live, 1 -> 2 -> 4 subnodes, on one
// shard and on four. Nothing registered moves or goes missing, every subnode
// stays within its capacity, and each subnode's store ends exactly as a fresh
// store fed its slice entry by entry would: the slice in import order (the
// old subnodes in ref order, each in ascending OID order), the last
// `capacity` entries resident, the latest first, the rest spilled.
class GlsSplitTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GlsSplitTest, LiveSplitKeepsEntriesAndPlacesSlicesAsImportedOneByOne) {
  constexpr size_t kCapacity = 4;
  const size_t shards = GetParam();
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::NetworkOptions net_options;
  sim::Simulator simulator(shards,
                           static_cast<sim::SimTime>(net_options.profile.LatencyAt(1)));
  // Continent homing, before any service registers a port (split hosts too).
  auto assign_node = [&](NodeId node) {
    DomainId d = world.topology.NodeDomain(node);
    while (world.topology.DomainDepth(d) > 1) {
      d = world.topology.DomainParent(d);
    }
    simulator.AssignNode(node, world.topology.DomainDepth(d) == 0
                                   ? 0
                                   : static_cast<size_t>(d - 1) % shards);
  };
  for (NodeId node = 0; node < world.topology.num_nodes(); ++node) {
    assign_node(node);
  }
  sim::Network network(&simulator, &world.topology, net_options);
  sim::PlainTransport transport(&network);
  GlsDeploymentOptions options;
  options.node_options.store_capacity = kCapacity;
  GlsDeployment deployment(&transport, &world.topology, nullptr, options, assign_node);

  // Hosts 0-3 sit on one continent, 4-7 on the other. 48 OIDs register on the
  // first and 16 on the second, so the root (64 pointers) is the only node
  // above 48 entries.
  Rng rng(404);
  std::vector<ObjectId> oids;
  std::vector<NodeId> registrar;
  for (int i = 0; i < 64; ++i) {
    oids.push_back(ObjectId::Generate(&rng));
    registrar.push_back(world.hosts[i < 48 ? i % 4 : 4 + i % 4]);
    auto client = deployment.MakeClient(registrar.back());
    Status status = Unavailable("pending");
    client->Insert(oids.back(),
                   ContactAddress{{registrar.back(), sim::kPortGos}, 1,
                                  ReplicaRole::kMaster},
                   [&](Status s) { status = s; });
    simulator.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  auto root_entries = [&] {
    std::vector<std::pair<ObjectId, DirectoryEntry>> all;
    size_t items = 0;
    for (const DirectorySubnode* subnode : deployment.SubnodesOf(0)) {
      for (auto& item : subnode->ExportEntries()) {
        all.push_back(std::move(item));
      }
      items += subnode->TotalEntries();
    }
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return std::make_pair(all, items);
  };
  const auto [before, before_items] = root_entries();
  ASSERT_EQ(before.size(), 64u);
  ASSERT_EQ(before_items, 64u);

  for (size_t count : {2, 4}) {
    SCOPED_TRACE("split to " + std::to_string(count));
    // What each old subnode holds and has counted, in ref order.
    std::vector<const DirectorySubnode*> old_members = deployment.SubnodesOf(0);
    std::vector<std::vector<std::pair<ObjectId, DirectoryEntry>>> drained;
    std::vector<SubnodeStats> old_stats;
    for (const DirectorySubnode* member : old_members) {
      drained.push_back(member->ExportEntries());
      old_stats.push_back(member->stats());
    }

    if (count == 2) {
      ASSERT_EQ(deployment.SplitOverloadedNodes(48), 1);
    } else {
      deployment.SplitDirectoryNode(0, 4);
    }
    std::vector<const DirectorySubnode*> members = deployment.SubnodesOf(0);
    ASSERT_EQ(members.size(), count);
    const DirectoryRef& ref = deployment.DirectoryFor(0);

    const auto [after, after_items] = root_entries();
    EXPECT_EQ(after_items, before_items);
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i].first, before[i].first);
      EXPECT_TRUE(SameEntry(after[i].second, before[i].second));
    }

    for (size_t i = 0; i < members.size(); ++i) {
      SCOPED_TRACE("root subnode " + std::to_string(i));
      SubnodeStore fresh(kCapacity);
      for (const auto& slice : drained) {
        for (const auto& [oid, entry] : slice) {
          if (ref.SubnodeIndex(oid) == i) {
            fresh.Mutable(oid) = entry;
          }
        }
      }
      // An old subnode keeps counting from where it was.
      SubnodeStats base = i < old_stats.size() ? old_stats[i] : SubnodeStats{};
      const SubnodeStats& stats = members[i]->stats();
      EXPECT_EQ(stats.store_evictions, base.store_evictions + fresh.evictions());
      EXPECT_EQ(stats.store_fault_ins, base.store_fault_ins + fresh.fault_ins());
      EXPECT_EQ(stats.store_spilled_bytes,
                base.store_spilled_bytes + fresh.spilled_bytes());
      EXPECT_EQ(stats.store_peak_resident,
                std::max<uint64_t>(base.store_peak_resident, fresh.peak_resident()));
      EXPECT_EQ(members[i]->StoreResidentOids(), fresh.ResidentOids());
      EXPECT_EQ(members[i]->TotalEntries(), fresh.ItemCount());
    }
    for (const auto& subnode : deployment.subnodes()) {
      EXPECT_LE(subnode->StoreResidentEntries(), kCapacity);
      EXPECT_LE(subnode->stats().store_peak_resident, kCapacity);
    }

    // Every OID still resolves, to its registrar, from the other continent.
    for (size_t i = 0; i < oids.size(); ++i) {
      NodeId far = world.hosts[i < 48 ? 7 : 0];
      auto client = deployment.MakeClient(far);
      Result<LookupResult> out = Unavailable("pending");
      client->Lookup(oids[i], [&](Result<LookupResult> r) { out = std::move(r); });
      simulator.Run();
      ASSERT_TRUE(out.ok()) << out.status();
      ASSERT_EQ(out->addresses.size(), 1u);
      EXPECT_EQ(out->addresses[0].endpoint.node, registrar[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, GlsSplitTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace globe::gls
