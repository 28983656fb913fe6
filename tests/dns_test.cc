// Tests for the DNS substrate and the DNS-based Globe Name Service: zones, queries,
// caching with TTL expiry, TSIG-protected dynamic updates, zone transfer to
// secondaries, name mapping, moderator authorization and update batching.

#include <gtest/gtest.h>

#include "src/dns/gns.h"
#include "src/dns/message.h"
#include "src/dns/name.h"
#include "src/dns/resolver.h"
#include "src/dns/server.h"
#include "src/dns/zone.h"
#include "src/sec/secure_transport.h"
#include "src/sim/rpc.h"
#include "src/sim/backend.h"

namespace globe::dns {
namespace {

using sim::BuildUniformWorld;
using sim::Endpoint;
using sim::kSecond;
using sim::NodeId;
using sim::UniformWorld;

// ---------------------------------------------------------------- Names

TEST(NameTest, CanonicalizesCase) {
  EXPECT_EQ(CanonicalName("Gimp.GDN.cs.VU.nl").value(), "gimp.gdn.cs.vu.nl");
}

TEST(NameTest, RejectsEmpty) { EXPECT_FALSE(CanonicalName("").ok()); }

TEST(NameTest, RejectsEmptyLabel) {
  EXPECT_FALSE(CanonicalName("a..b").ok());
  EXPECT_FALSE(CanonicalName(".a").ok());
}

TEST(NameTest, RejectsLongLabel) {
  std::string label(64, 'a');
  EXPECT_FALSE(CanonicalName(label + ".nl").ok());
  EXPECT_TRUE(CanonicalName(std::string(63, 'a') + ".nl").ok());
}

TEST(NameTest, RejectsBadCharacters) {
  EXPECT_FALSE(CanonicalName("has space.nl").ok());
  EXPECT_FALSE(CanonicalName("star*.nl").ok());
}

TEST(NameTest, RejectsLeadingTrailingHyphen) {
  EXPECT_FALSE(CanonicalName("-abc.nl").ok());
  EXPECT_FALSE(CanonicalName("abc-.nl").ok());
  EXPECT_TRUE(CanonicalName("a-b-c.nl").ok());
}

TEST(NameTest, IsInZone) {
  EXPECT_TRUE(IsInZone("gimp.gdn.cs.vu.nl", "gdn.cs.vu.nl"));
  EXPECT_TRUE(IsInZone("gdn.cs.vu.nl", "gdn.cs.vu.nl"));
  EXPECT_FALSE(IsInZone("gimp.gdn.cs.vu.de", "gdn.cs.vu.nl"));
  EXPECT_FALSE(IsInZone("notgdn.cs.vu.nl", "gdn.cs.vu.nl"));
}

// ---------------------------------------------------------------- Globe <-> DNS names

TEST(GnsNameMappingTest, PaperExample) {
  // §5: /nl/vu/cs/globe/somePackage -> somepackage.globe.cs.vu.nl. Our mapping
  // appends the zone suffix, so the zone here is the top-level "nl" domain and the
  // object name carries the rest of the path.
  auto dns = GlobeNameToDnsName("/vu/cs/globe/somePackage", "nl");
  ASSERT_TRUE(dns.ok());
  EXPECT_EQ(*dns, "somepackage.globe.cs.vu.nl");
}

TEST(GnsNameMappingTest, GdnZoneHidesDomain) {
  auto dns = GlobeNameToDnsName("/apps/graphics/Gimp", "gdn.cs.vu.nl");
  ASSERT_TRUE(dns.ok());
  EXPECT_EQ(*dns, "gimp.graphics.apps.gdn.cs.vu.nl");
}

TEST(GnsNameMappingTest, RoundTrip) {
  auto dns = GlobeNameToDnsName("/apps/graphics/gimp", "gdn.cs.vu.nl");
  ASSERT_TRUE(dns.ok());
  auto globe_name = DnsNameToGlobeName(*dns, "gdn.cs.vu.nl");
  ASSERT_TRUE(globe_name.ok());
  EXPECT_EQ(*globe_name, "/apps/graphics/gimp");
}

TEST(GnsNameMappingTest, RejectsBadSyntax) {
  EXPECT_FALSE(GlobeNameToDnsName("", "gdn.cs.vu.nl").ok());
  EXPECT_FALSE(GlobeNameToDnsName("///", "gdn.cs.vu.nl").ok());
  // DNS syntax restriction surfaces here (paper §5 disadvantage 1).
  EXPECT_FALSE(GlobeNameToDnsName("/apps/my package", "gdn.cs.vu.nl").ok());
}

TEST(GnsNameMappingTest, InverseRejectsForeignZone) {
  EXPECT_FALSE(DnsNameToGlobeName("gimp.example.com", "gdn.cs.vu.nl").ok());
}

// ---------------------------------------------------------------- Zone

TEST(ZoneTest, AddLookupRemove) {
  Zone zone("gdn.cs.vu.nl");
  ASSERT_TRUE(zone.Add({"gimp.gdn.cs.vu.nl", RrType::kTxt, 3600, "oid-1"}).ok());
  auto records = zone.Lookup("gimp.gdn.cs.vu.nl", RrType::kTxt);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].data, "oid-1");
  EXPECT_EQ(zone.Remove("gimp.gdn.cs.vu.nl", RrType::kTxt), 1u);
  EXPECT_TRUE(zone.Lookup("gimp.gdn.cs.vu.nl", RrType::kTxt).empty());
}

TEST(ZoneTest, RejectsOutOfZoneRecord) {
  Zone zone("gdn.cs.vu.nl");
  EXPECT_FALSE(zone.Add({"gimp.example.com", RrType::kTxt, 3600, "x"}).ok());
}

TEST(ZoneTest, SerialBumpsOnChange) {
  Zone zone("gdn.cs.vu.nl");
  uint32_t s0 = zone.serial();
  ASSERT_TRUE(zone.Add({"a.gdn.cs.vu.nl", RrType::kTxt, 60, "1"}).ok());
  EXPECT_GT(zone.serial(), s0);
  uint32_t s1 = zone.serial();
  zone.Remove("a.gdn.cs.vu.nl", RrType::kTxt);
  EXPECT_GT(zone.serial(), s1);
}

TEST(ZoneTest, DuplicateAddIsIdempotent) {
  Zone zone("z.nl");
  ResourceRecord record{"a.z.nl", RrType::kTxt, 60, "1"};
  ASSERT_TRUE(zone.Add(record).ok());
  uint32_t serial = zone.serial();
  ASSERT_TRUE(zone.Add(record).ok());
  EXPECT_EQ(zone.serial(), serial);
  EXPECT_EQ(zone.record_count(), 1u);
}

TEST(ZoneTest, MultipleTypesAtOneName) {
  Zone zone("z.nl");
  ASSERT_TRUE(zone.Add({"a.z.nl", RrType::kTxt, 60, "txt"}).ok());
  ASSERT_TRUE(zone.Add({"a.z.nl", RrType::kA, 60, "10.0.0.1"}).ok());
  EXPECT_EQ(zone.Lookup("a.z.nl", RrType::kTxt).size(), 1u);
  EXPECT_EQ(zone.Lookup("a.z.nl", RrType::kA).size(), 1u);
  EXPECT_EQ(zone.RemoveName("a.z.nl"), 2u);
  EXPECT_FALSE(zone.HasName("a.z.nl"));
}

TEST(ZoneTest, SerializationRoundTrip) {
  Zone zone("z.nl", 120);
  ASSERT_TRUE(zone.Add({"a.z.nl", RrType::kTxt, 60, "one"}).ok());
  ASSERT_TRUE(zone.Add({"b.z.nl", RrType::kTxt, 90, "two"}).ok());
  ByteWriter w;
  zone.Serialize(&w);
  auto restored = Zone::Deserialize(w.data());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->origin(), "z.nl");
  EXPECT_EQ(restored->soa_minimum_ttl(), 120u);
  EXPECT_EQ(restored->serial(), zone.serial());
  EXPECT_EQ(restored->record_count(), 2u);
  EXPECT_EQ(restored->Lookup("b.z.nl", RrType::kTxt)[0].data, "two");
}

// ---------------------------------------------------------------- Messages / TSIG

TEST(MessageTest, QueryRoundTrip) {
  QueryRequest request;
  request.question = {"gimp.gdn.cs.vu.nl", RrType::kTxt};
  auto restored = wire::Decode<QueryRequest>(wire::Encode(request));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->question.name, "gimp.gdn.cs.vu.nl");
  EXPECT_EQ(restored->question.type, RrType::kTxt);
}

TEST(MessageTest, ResponseRoundTrip) {
  QueryResponse response;
  response.rcode = Rcode::kNxDomain;
  response.authoritative = true;
  response.negative_ttl = 300;
  response.answers.push_back({"a.z.nl", RrType::kTxt, 60, "data"});
  auto restored = wire::Decode<QueryResponse>(wire::Encode(response));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->rcode, Rcode::kNxDomain);
  EXPECT_TRUE(restored->authoritative);
  EXPECT_EQ(restored->negative_ttl, 300u);
  ASSERT_EQ(restored->answers.size(), 1u);
  EXPECT_EQ(restored->answers[0].data, "data");
}

TEST(MessageTest, UpdateTsigSignVerify) {
  UpdateRequest update;
  update.zone = "gdn.cs.vu.nl";
  update.additions.push_back({"gimp.gdn.cs.vu.nl", RrType::kTxt, 3600, "oid"});
  update.deletions.push_back({"old.gdn.cs.vu.nl", RrType::kTxt, true});
  update.key_name = "gdn-na";
  update.sequence = 7;

  Bytes key = ToBytes("shared-secret");
  TsigSign(&update, key);
  EXPECT_TRUE(TsigVerify(update, key));
  EXPECT_FALSE(TsigVerify(update, ToBytes("wrong-key")));

  // Any field change invalidates the MAC.
  UpdateRequest tampered = update;
  tampered.additions[0].data = "evil-oid";
  EXPECT_FALSE(TsigVerify(tampered, key));
}

TEST(MessageTest, UpdateSerializationRoundTrip) {
  UpdateRequest update;
  update.zone = "gdn.cs.vu.nl";
  update.additions.push_back({"a.gdn.cs.vu.nl", RrType::kTxt, 60, "x"});
  update.deletions.push_back({"b.gdn.cs.vu.nl", RrType::kTxt, false});
  update.key_name = "k";
  update.sequence = 3;
  TsigSign(&update, ToBytes("key"));

  auto restored = wire::Decode<UpdateRequest>(wire::Encode(update));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->zone, update.zone);
  EXPECT_EQ(restored->additions, update.additions);
  EXPECT_EQ(restored->deletions, update.deletions);
  EXPECT_EQ(restored->sequence, 3u);
  EXPECT_TRUE(TsigVerify(*restored, ToBytes("key")));
}

TEST(MessageTest, MalformedUpdateRejected) {
  EXPECT_FALSE(wire::Decode<UpdateRequest>(Bytes{1, 2, 3}).ok());
}

// ---------------------------------------------------------------- Server + Resolver

class DnsServiceTest : public ::testing::Test {
 protected:
  static constexpr char kZone[] = "gdn.cs.vu.nl";

  DnsServiceTest()
      : world_(BuildUniformWorld({2, 2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        transport_(&network_) {
    tsig_keys_["gdn-na"] = ToBytes("naming-authority-key");
    tsig_keys_["axfr"] = ToBytes("transfer-key");

    primary_ =
        std::make_unique<AuthoritativeServer>(&transport_, world_.hosts[0], tsig_keys_);
    Zone zone(kZone, /*soa_minimum_ttl=*/300);
    EXPECT_TRUE(zone.Add({"gimp.graphics.apps.gdn.cs.vu.nl", RrType::kTxt, 3600,
                          "aabbccdd"}).ok());
    primary_->AddZone(std::move(zone), /*primary=*/true);

    resolver_ = std::make_unique<CachingResolver>(&transport_, world_.hosts[4]);
    resolver_->AddUpstream(kZone, primary_->endpoint());

    client_ =
        std::make_unique<DnsClient>(&transport_, world_.hosts[6], resolver_->endpoint());
  }

  QueryResponse ResolveSync(std::string_view name, RrType type = RrType::kTxt) {
    QueryResponse out;
    bool done = false;
    client_->Resolve(name, type, [&](Result<QueryResponse> result) {
      EXPECT_TRUE(result.ok()) << result.status();
      if (result.ok()) {
        out = std::move(*result);
      }
      done = true;
    });
    simulator_.Run();
    EXPECT_TRUE(done);
    return out;
  }

  sim::Simulator simulator_;
  UniformWorld world_;
  sim::Network network_;
  sim::PlainTransport transport_;
  TsigKeyTable tsig_keys_;
  std::unique_ptr<AuthoritativeServer> primary_;
  std::unique_ptr<CachingResolver> resolver_;
  std::unique_ptr<DnsClient> client_;
};

TEST_F(DnsServiceTest, PositiveAnswerThroughResolver) {
  QueryResponse response = ResolveSync("gimp.graphics.apps.gdn.cs.vu.nl");
  EXPECT_EQ(response.rcode, Rcode::kNoError);
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(response.answers[0].data, "aabbccdd");
  EXPECT_FALSE(response.from_cache);
}

TEST_F(DnsServiceTest, SecondQueryServedFromCache) {
  ResolveSync("gimp.graphics.apps.gdn.cs.vu.nl");
  uint64_t upstream_before = resolver_->stats().upstream_queries;
  QueryResponse response = ResolveSync("gimp.graphics.apps.gdn.cs.vu.nl");
  EXPECT_TRUE(response.from_cache);
  EXPECT_EQ(resolver_->stats().upstream_queries, upstream_before);
  EXPECT_EQ(resolver_->stats().cache_hits, 1u);
}

TEST_F(DnsServiceTest, CacheExpiresAfterTtl) {
  ResolveSync("gimp.graphics.apps.gdn.cs.vu.nl");
  // TTL is 3600 s; advance past it.
  simulator_.RunUntil(simulator_.Now() + 3601 * kSecond);
  QueryResponse response = ResolveSync("gimp.graphics.apps.gdn.cs.vu.nl");
  EXPECT_FALSE(response.from_cache);
  EXPECT_EQ(resolver_->stats().upstream_queries, 2u);
}

TEST_F(DnsServiceTest, NxdomainWithNegativeTtl) {
  QueryResponse response = ResolveSync("nosuch.apps.gdn.cs.vu.nl");
  EXPECT_EQ(response.rcode, Rcode::kNxDomain);
  EXPECT_EQ(response.negative_ttl, 300u);
}

TEST_F(DnsServiceTest, NegativeAnswersAreCached) {
  ResolveSync("nosuch.apps.gdn.cs.vu.nl");
  QueryResponse response = ResolveSync("nosuch.apps.gdn.cs.vu.nl");
  EXPECT_TRUE(response.from_cache);
  EXPECT_EQ(resolver_->stats().negative_cache_hits, 1u);
  // Negative entries expire on the SOA minimum.
  simulator_.RunUntil(simulator_.Now() + 301 * kSecond);
  response = ResolveSync("nosuch.apps.gdn.cs.vu.nl");
  EXPECT_FALSE(response.from_cache);
}

TEST_F(DnsServiceTest, QueryOutsideZoneRefused) {
  QueryResponse response = ResolveSync("www.example.com");
  EXPECT_EQ(response.rcode, Rcode::kServFail);  // resolver has no upstream for it
}

TEST_F(DnsServiceTest, DirectServerQueryOutsideZoneRefused) {
  QueryResponse out;
  client_->QueryServer(primary_->endpoint(), "www.example.com", RrType::kTxt,
                       [&](Result<QueryResponse> result) {
                         ASSERT_TRUE(result.ok());
                         out = std::move(*result);
                       });
  simulator_.Run();
  EXPECT_EQ(out.rcode, Rcode::kRefused);
}

TEST_F(DnsServiceTest, AuthenticUpdateAppliesAndPropagatesToSecondary) {
  auto secondary =
      std::make_unique<AuthoritativeServer>(&transport_, world_.hosts[2], tsig_keys_);
  secondary->AddZone(Zone(kZone, 300), /*primary=*/false);
  primary_->AddSecondary(kZone, secondary->endpoint());

  UpdateRequest update;
  update.zone = kZone;
  update.additions.push_back({"tetex.apps.gdn.cs.vu.nl", RrType::kTxt, 3600, "eeff0011"});
  update.key_name = "gdn-na";
  update.sequence = 1;
  TsigSign(&update, tsig_keys_["gdn-na"]);

  sim::Channel rpc(&transport_, world_.hosts[6]);
  Status status = InvalidArgument("pending");
  rpc.Call(primary_->endpoint(), "dns.update", wire::Encode(update),
           [&](Result<sim::PayloadView> result) {
             status = result.ok() ? OkStatus() : result.status();
           });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(primary_->stats().updates_applied, 1u);
  EXPECT_EQ(primary_->stats().transfers_sent, 1u);
  EXPECT_EQ(secondary->stats().transfers_applied, 1u);

  // The secondary now answers for the new name.
  const Zone* replica = secondary->FindZone("tetex.apps.gdn.cs.vu.nl");
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->Lookup("tetex.apps.gdn.cs.vu.nl", RrType::kTxt).size(), 1u);
}

TEST_F(DnsServiceTest, ForgedUpdateRejected) {
  UpdateRequest update;
  update.zone = kZone;
  update.additions.push_back({"evil.gdn.cs.vu.nl", RrType::kTxt, 3600, "badc0de"});
  update.key_name = "gdn-na";
  update.sequence = 1;
  TsigSign(&update, ToBytes("attacker-guess"));  // wrong key

  sim::Channel rpc(&transport_, world_.hosts[6]);
  Status status;
  rpc.Call(primary_->endpoint(), "dns.update", wire::Encode(update),
           [&](Result<sim::PayloadView> result) { status = result.status(); });
  simulator_.Run();
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(primary_->stats().updates_rejected, 1u);
  EXPECT_EQ(primary_->FindZone("evil.gdn.cs.vu.nl")
                ->Lookup("evil.gdn.cs.vu.nl", RrType::kTxt)
                .size(),
            0u);
}

TEST_F(DnsServiceTest, ReplayedUpdateRejected) {
  UpdateRequest update;
  update.zone = kZone;
  update.additions.push_back({"pkg.gdn.cs.vu.nl", RrType::kTxt, 3600, "11"});
  update.key_name = "gdn-na";
  update.sequence = 1;
  TsigSign(&update, tsig_keys_["gdn-na"]);
  Bytes encoded = wire::Encode(update);

  sim::Channel rpc(&transport_, world_.hosts[6]);
  int ok_count = 0, denied_count = 0;
  auto record_result = [&](Result<sim::PayloadView> result) {
    if (result.ok()) {
      ++ok_count;
    } else if (result.status().code() == StatusCode::kPermissionDenied) {
      ++denied_count;
    }
  };
  rpc.Call(primary_->endpoint(), "dns.update", encoded, record_result);
  simulator_.Run();
  rpc.Call(primary_->endpoint(), "dns.update", encoded, record_result);  // replay
  simulator_.Run();
  EXPECT_EQ(ok_count, 1);
  EXPECT_EQ(denied_count, 1);
}

TEST_F(DnsServiceTest, UpdateToSecondaryRefused) {
  auto secondary =
      std::make_unique<AuthoritativeServer>(&transport_, world_.hosts[2], tsig_keys_);
  secondary->AddZone(Zone(kZone, 300), /*primary=*/false);

  UpdateRequest update;
  update.zone = kZone;
  update.key_name = "gdn-na";
  update.additions.push_back({"pkg.gdn.cs.vu.nl", RrType::kTxt, 3600, "11"});
  update.sequence = 1;
  TsigSign(&update, tsig_keys_["gdn-na"]);

  sim::Channel rpc(&transport_, world_.hosts[6]);
  Status status;
  rpc.Call(secondary->endpoint(), "dns.update", wire::Encode(update),
           [&](Result<sim::PayloadView> result) { status = result.status(); });
  simulator_.Run();
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(DnsServiceTest, RoundRobinAcrossReplicatedServers) {
  auto second =
      std::make_unique<AuthoritativeServer>(&transport_, world_.hosts[2], tsig_keys_);
  Zone zone2(kZone, 300);
  EXPECT_TRUE(
      zone2.Add({"gimp.graphics.apps.gdn.cs.vu.nl", RrType::kTxt, 3600, "aabbccdd"})
          .ok());
  second->AddZone(std::move(zone2), /*primary=*/false);
  resolver_->AddUpstream(kZone, second->endpoint());

  // Distinct names defeat the cache so every query goes upstream.
  for (int i = 0; i < 10; ++i) {
    ResolveSync("name" + std::to_string(i) + ".gdn.cs.vu.nl");
  }
  EXPECT_EQ(primary_->stats().queries, 5u);
  EXPECT_EQ(second->stats().queries, 5u);
}

// ---------------------------------------------------------------- GNS end-to-end

class GnsTest : public ::testing::Test {
 protected:
  static constexpr char kZone[] = "gdn.cs.vu.nl";

  GnsTest()
      : world_(BuildUniformWorld({2, 2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        plain_(&network_),
        secure_(&plain_, &registry_) {
    moderator_cred_ = registry_.Register("moderator-arno", sec::Role::kModerator);
    user_cred_ = registry_.Register("random-user", sec::Role::kUser);
    na_host_cred_ = registry_.Register("na-host", sec::Role::kGdnHost);

    moderator_node_ = world_.hosts[1];
    user_node_ = world_.hosts[3];
    na_node_ = world_.hosts[0];
    dns_node_ = world_.hosts[2];
    resolver_node_ = world_.hosts[4];
    secure_.SetNodeCredential(moderator_node_, moderator_cred_);
    secure_.SetNodeCredential(user_node_, user_cred_);
    secure_.SetNodeCredential(na_node_, na_host_cred_);

    // Moderator tool -> naming authority runs mutually authenticated; everything else
    // plain (the DNS itself cannot be protected by TLS, §6.3).
    secure_.SetChannelPolicy([this](NodeId src, NodeId dst) {
      sec::ChannelConfig config;
      if ((src == moderator_node_ || src == user_node_) && dst == na_node_) {
        config.auth = sec::AuthMode::kMutualAuth;
      }
      return config;
    });

    tsig_keys_["gdn-na"] = ToBytes("na-key");
    tsig_keys_["axfr"] = ToBytes("axfr-key");
    dns_server_ = std::make_unique<AuthoritativeServer>(&secure_, dns_node_, tsig_keys_);
    dns_server_->AddZone(Zone(kZone, 300), /*primary=*/true);

    NamingAuthorityOptions options;
    options.max_batch = 4;
    options.max_batch_delay = 2 * kSecond;
    authority_ = std::make_unique<GnsNamingAuthority>(
        &secure_, na_node_, kZone, &registry_, "gdn-na", tsig_keys_["gdn-na"],
        dns_server_->endpoint(), options);

    resolver_ = std::make_unique<CachingResolver>(&secure_, resolver_node_);
    resolver_->AddUpstream(kZone, dns_server_->endpoint());

    moderator_gns_ = std::make_unique<GnsClient>(&secure_, moderator_node_, kZone,
                                                 authority_->endpoint(),
                                                 resolver_->endpoint());
    user_gns_ = std::make_unique<GnsClient>(&secure_, user_node_, kZone,
                                            authority_->endpoint(),
                                            resolver_->endpoint());
  }

  sim::Simulator simulator_;
  UniformWorld world_;
  sim::Network network_;
  sim::PlainTransport plain_;
  sec::KeyRegistry registry_;
  sec::SecureTransport secure_;
  sec::Credential moderator_cred_, user_cred_, na_host_cred_;
  NodeId moderator_node_, user_node_, na_node_, dns_node_, resolver_node_;
  TsigKeyTable tsig_keys_;
  std::unique_ptr<AuthoritativeServer> dns_server_;
  std::unique_ptr<GnsNamingAuthority> authority_;
  std::unique_ptr<CachingResolver> resolver_;
  std::unique_ptr<GnsClient> moderator_gns_, user_gns_;
};

TEST_F(GnsTest, ModeratorRegistersNameUserResolvesIt) {
  Status add_status = InvalidArgument("pending");
  moderator_gns_->AddName("/apps/graphics/Gimp", "deadbeef01", [&](Status s) {
    add_status = s;
  });
  simulator_.Run();
  ASSERT_TRUE(add_status.ok()) << add_status;

  // The batch flushes on the delay timer; Run() drains it all.
  EXPECT_EQ(dns_server_->stats().updates_applied, 1u);

  Result<std::string> oid = NotFound("pending");
  user_gns_->Resolve("/apps/graphics/Gimp", [&](Result<std::string> result) {
    oid = std::move(result);
  });
  simulator_.Run();
  ASSERT_TRUE(oid.ok()) << oid.status();
  EXPECT_EQ(*oid, "deadbeef01");
}

TEST_F(GnsTest, PlainUserCannotRegisterNames) {
  Status status = OkStatus();
  user_gns_->AddName("/apps/evil/warez", "badbadbad0", [&](Status s) { status = s; });
  simulator_.Run();
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(authority_->stats().requests_denied, 1u);
  EXPECT_EQ(dns_server_->stats().updates_applied, 0u);
}

TEST_F(GnsTest, UnauthenticatedChannelCannotRegisterNames) {
  // A GNS client on a node with no credential: the channel policy yields plain.
  GnsClient anonymous(&secure_, world_.hosts[5], kZone, authority_->endpoint(),
                      resolver_->endpoint());
  Status status = OkStatus();
  anonymous.AddName("/apps/evil/warez", "badbadbad0", [&](Status s) { status = s; });
  simulator_.Run();
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
}

TEST_F(GnsTest, BatchingCoalescesUpdates) {
  // Four adds = exactly one batch (max_batch = 4).
  for (int i = 0; i < 4; ++i) {
    moderator_gns_->AddName("/apps/pkg" + std::to_string(i), "0a0b0c0d", [](Status) {});
  }
  simulator_.Run();
  EXPECT_EQ(authority_->stats().batches_sent, 1u);
  EXPECT_EQ(dns_server_->stats().updates_applied, 1u);
  EXPECT_EQ(dns_server_->FindZone("pkg0.apps.gdn.cs.vu.nl")->record_count(), 4u);
}

TEST_F(GnsTest, RemoveNameDeletesRecord) {
  moderator_gns_->AddName("/apps/tmp", "0123456789", [](Status) {});
  simulator_.Run();
  moderator_gns_->RemoveName("/apps/tmp", [](Status) {});
  simulator_.Run();

  // Fresh resolver path (cache may hold the old positive answer; flush it).
  resolver_->FlushCache();
  bool got_not_found = false;
  user_gns_->Resolve("/apps/tmp", [&](Result<std::string> result) {
    got_not_found = !result.ok() && result.status().code() == StatusCode::kNotFound;
  });
  simulator_.Run();
  EXPECT_TRUE(got_not_found);
}

TEST_F(GnsTest, ResolveUnknownNameIsNotFound) {
  bool got_not_found = false;
  user_gns_->Resolve("/apps/never/existed", [&](Result<std::string> result) {
    got_not_found = !result.ok() && result.status().code() == StatusCode::kNotFound;
  });
  simulator_.Run();
  EXPECT_TRUE(got_not_found);
}

}  // namespace
}  // namespace globe::dns
