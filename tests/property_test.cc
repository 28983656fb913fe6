// Cross-cutting property tests: invariants that must hold for arbitrary inputs —
// deserializers never crash on random bytes, a truncated GOS checkpoint restores
// nothing, the GLS agrees with a reference model under random operation sequences,
// replicated objects converge to the reference state, the DNS cache never serves
// expired records.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/dns/message.h"
#include "src/dns/resolver.h"
#include "src/dns/server.h"
#include "src/dns/zone.h"
#include "src/dso/client_server.h"
#include "src/dso/master_slave.h"
#include "src/dso/wire.h"
#include "src/gls/deploy.h"
#include "src/gos/object_server.h"
#include "src/http/http.h"
#include "tests/test_util.h"
#include "src/sim/backend.h"

namespace globe {
namespace {

using sim::BuildUniformWorld;
using sim::NodeId;
using sim::UniformWorld;

// ---------------------------------------------------------------- Decoder fuzz

// Every wire-format decoder must tolerate arbitrary bytes: return an error or a
// value, never crash or hang (paper §6.1 availability).
class DecoderFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderFuzzTest, AllDecodersSurviveRandomBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    Bytes junk = rng.RandomBytes(rng.UniformInt(200));
    { auto r = dso::Invocation::Deserialize(junk); (void)r; }
    { auto r = dso::VersionedState::Deserialize(junk); (void)r; }
    { auto r = dns::QueryRequest::Deserialize(junk); (void)r; }
    { auto r = dns::QueryResponse::Deserialize(junk); (void)r; }
    { auto r = dns::UpdateRequest::Deserialize(junk); (void)r; }
    { auto r = dns::ZoneTransfer::Deserialize(junk); (void)r; }
    { auto r = dns::Zone::Deserialize(junk); (void)r; }
    { auto r = gls::LookupResult::Deserialize(junk); (void)r; }
    { auto r = gos::CreateFirstReplicaRequest::Deserialize(junk); (void)r; }
    { auto r = gos::CreateFirstReplicaResponse::Deserialize(junk); (void)r; }
    { auto r = gos::CreateReplicaRequest::Deserialize(junk); (void)r; }
    { auto r = gos::CreateReplicaResponse::Deserialize(junk); (void)r; }
    { auto r = gos::RemoveReplicaRequest::Deserialize(junk); (void)r; }
    { auto r = gos::ListReplicasResponse::Deserialize(junk); (void)r; }
    { auto r = http::HttpRequest::Parse(junk); (void)r; }
    { auto r = http::HttpResponse::Parse(junk); (void)r; }
    {
      ByteReader reader(junk);
      auto r = gls::ObjectId::Deserialize(&reader);
      (void)r;
    }
    {
      ByteReader reader(junk);
      auto r = gls::ContactAddress::Deserialize(&reader);
      (void)r;
    }
  }
}

// Mutated valid frames: take a real message, flip bytes, decode.
TEST_P(DecoderFuzzTest, MutatedValidFramesSurvive) {
  Rng rng(GetParam() + 7);
  dns::UpdateRequest update;
  update.zone = "gdn.cs.vu.nl";
  update.additions.push_back({"pkg.gdn.cs.vu.nl", dns::RrType::kTxt, 3600, "aabb"});
  update.key_name = "k";
  update.sequence = 9;
  dns::TsigSign(&update, ToBytes("key"));
  Bytes wire = update.Serialize();

  for (int i = 0; i < 300; ++i) {
    Bytes mutated = wire;
    int flips = 1 + static_cast<int>(rng.UniformInt(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] ^= static_cast<uint8_t>(rng.NextU64());
    }
    auto decoded = dns::UpdateRequest::Deserialize(mutated);
    if (decoded.ok()) {
      // If it still parses, TSIG must catch any semantic change.
      bool same_bytes = mutated == wire;
      EXPECT_EQ(dns::TsigVerify(*decoded, ToBytes("key")), same_bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------- GOS checkpoints

// A truncated checkpoint restores nothing: every strict prefix of a checkpoint
// holding a master, a slave and a cache fails before any replica is built or any
// address is registered — except the prefix that ends where the optional
// telemetry trailer starts, which is a whole checkpoint without telemetry.
TEST(GosCheckpointTest, EveryStrictPrefixRestoresNothing) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr);
  dso::ImplementationRepository repository;
  repository.RegisterSemantics(std::make_unique<testutil::KvObject>());
  auto make_gos = [&](NodeId host) {
    return std::make_unique<gos::ObjectServer>(
        &transport, host, &repository, deployment.LeafDirectoryFor(host), nullptr);
  };
  std::unique_ptr<gos::ObjectServer> hosting = make_gos(world.hosts[0]);
  std::unique_ptr<gos::ObjectServer> elsewhere = make_gos(world.hosts[6]);
  using Created = Result<std::pair<gls::ObjectId, gls::ContactAddress>>;
  auto create_first = [&](gos::ObjectServer* gos, gls::ProtocolId protocol) {
    Created created = Unavailable("pending");
    gos->CreateFirstReplica(protocol, testutil::KvObject::kTypeId,
                            [&](Created r) { created = std::move(r); });
    simulator.Run();
    EXPECT_TRUE(created.ok()) << created.status();
    return created.ok() ? created->first : gls::ObjectId{};
  };
  auto join = [&](const gls::ObjectId& oid, gls::ReplicaRole role) {
    Created created = Unavailable("pending");
    hosting->CreateReplica(oid, testutil::KvObject::kTypeId, role,
                           [&](Created r) { created = std::move(r); });
    simulator.Run();
    EXPECT_TRUE(created.ok()) << created.status();
  };
  gls::ObjectId master = create_first(hosting.get(), dso::kProtoMasterSlave);
  join(create_first(elsewhere.get(), dso::kProtoMasterSlave), gls::ReplicaRole::kSlave);
  join(create_first(elsewhere.get(), dso::kProtoCacheInval), gls::ReplicaRole::kCache);
  // A write, so the telemetry trailer carries an entry.
  hosting->FindReplica(master)->Invoke(testutil::KvPut("k", "v"), [](Result<Bytes>) {});
  simulator.Run();
  ASSERT_EQ(hosting->num_replicas(), 3u);

  Bytes checkpoint = hosting->Checkpoint();
  ByteWriter trailer;
  hosting->metrics()->Serialize(&trailer);
  size_t trailer_start = checkpoint.size() - trailer.size();
  hosting.reset();
  auto inserts_sent = [&] {
    uint64_t inserts = 0;
    for (const auto& subnode : deployment.subnodes()) {
      inserts += subnode->stats().insert_requests;
    }
    return inserts;
  };

  for (size_t length = 0; length < checkpoint.size(); ++length) {
    std::unique_ptr<gos::ObjectServer> restored = make_gos(world.hosts[0]);
    uint64_t inserts_before = inserts_sent();
    Status status = Unavailable("pending");
    restored->Restore(ByteSpan(checkpoint.data(), length), [&](Status s) { status = s; });
    simulator.Run();
    if (length == trailer_start) {
      EXPECT_TRUE(status.ok()) << status;
      EXPECT_EQ(restored->num_replicas(), 3u);
      continue;
    }
    EXPECT_FALSE(status.ok()) << "prefix of " << length << " bytes restored";
    EXPECT_EQ(restored->num_replicas(), 0u) << "prefix of " << length << " bytes";
    EXPECT_EQ(inserts_sent(), inserts_before) << "prefix of " << length << " bytes";
  }
}

// ---------------------------------------------------------------- GLS vs reference

// Random insert/delete/lookup sequences checked against a trivial reference model.
class GlsModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GlsModelTest, AgreesWithReferenceModel) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr);

  Rng rng(GetParam());
  // Reference: oid -> set of registered contact addresses.
  std::map<gls::ObjectId, std::set<gls::ContactAddress>> reference;
  std::vector<gls::ObjectId> oids;
  for (int i = 0; i < 6; ++i) {
    oids.push_back(gls::ObjectId::Generate(&rng));
  }

  for (int step = 0; step < 120; ++step) {
    const gls::ObjectId& oid = oids[rng.UniformInt(oids.size())];
    NodeId host = world.hosts[rng.UniformInt(world.hosts.size())];
    gls::ContactAddress address{{host, sim::kPortGos}, 1, gls::ReplicaRole::kMaster};
    auto client = deployment.MakeClient(host);

    int action = static_cast<int>(rng.UniformInt(3));
    if (action == 0) {
      // Insert.
      Status status = Unavailable("pending");
      client->Insert(oid, address, [&](Status s) { status = s; });
      simulator.Run();
      ASSERT_TRUE(status.ok()) << status;
      reference[oid].insert(address);
    } else if (action == 1) {
      // Delete (may or may not exist).
      Status status = Unavailable("pending");
      client->Delete(oid, address, [&](Status s) { status = s; });
      simulator.Run();
      bool existed = reference.count(oid) > 0 && reference[oid].count(address) > 0;
      EXPECT_EQ(status.ok(), existed) << "step " << step;
      if (existed) {
        reference[oid].erase(address);
        if (reference[oid].empty()) {
          reference.erase(oid);
        }
      }
    } else {
      // Lookup from a random host: found iff the reference has any address, and the
      // returned addresses are a subset of the registered ones.
      NodeId from = world.hosts[rng.UniformInt(world.hosts.size())];
      auto lookup_client = deployment.MakeClient(from);
      Result<gls::LookupResult> result = Unavailable("pending");
      lookup_client->Lookup(
          oid, [&](Result<gls::LookupResult> r) { result = std::move(r); });
      simulator.Run();
      bool expected = reference.count(oid) > 0 && !reference.at(oid).empty();
      ASSERT_EQ(result.ok(), expected) << "step " << step;
      if (result.ok()) {
        for (const auto& got : result->addresses) {
          EXPECT_TRUE(reference.at(oid).count(got) > 0)
              << "phantom address at step " << step;
        }
      }
    }
  }

  // Final sweep: every registered address reachable from everywhere.
  for (const auto& [oid, addresses] : reference) {
    auto client = deployment.MakeClient(world.hosts[0]);
    bool found = false;
    client->Lookup(oid, [&](Result<gls::LookupResult> r) { found = r.ok(); });
    simulator.Run();
    EXPECT_TRUE(found) << oid.ToHex();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlsModelTest, ::testing::Values(10, 20, 30));

// ---------------------------------------------------------------- Replication model

// Random write sequences through random entry points: all replicas converge to the
// reference map once quiescent.
class ReplicationModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationModelTest, MasterSlaveConvergesToReference) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);

  dso::MasterSlaveMaster master(&transport, world.hosts[0],
                                std::make_unique<testutil::KvObject>());
  dso::MasterSlaveSlave slave1(&transport, world.hosts[2],
                               std::make_unique<testutil::KvObject>(),
                               master.contact_address()->endpoint);
  dso::MasterSlaveSlave slave2(&transport, world.hosts[6],
                               std::make_unique<testutil::KvObject>(),
                               master.contact_address()->endpoint);
  for (dso::ReplicationObject* replica :
       std::vector<dso::ReplicationObject*>{&slave1, &slave2}) {
    Status status = Unavailable("pending");
    replica->Start([&](Status s) { status = s; });
    simulator.Run();
    ASSERT_TRUE(status.ok());
  }

  Rng rng(GetParam());
  std::map<std::string, std::string> reference;
  std::vector<dso::ReplicationObject*> entry_points = {&master, &slave1, &slave2};
  for (int step = 0; step < 60; ++step) {
    std::string key = "k" + std::to_string(rng.UniformInt(8));
    std::string value = "v" + std::to_string(step);
    reference[key] = value;
    auto* entry = entry_points[rng.UniformInt(entry_points.size())];
    bool ok = false;
    entry->Invoke(testutil::KvPut(key, value), [&](Result<Bytes> r) { ok = r.ok(); });
    simulator.Run();
    ASSERT_TRUE(ok) << "step " << step;
  }

  // Quiescent: every replica agrees with the reference on every key.
  for (auto* replica : entry_points) {
    for (const auto& [key, value] : reference) {
      Result<Bytes> result = Unavailable("pending");
      replica->Invoke(testutil::KvGet(key),
                      [&](Result<Bytes> r) { result = std::move(r); });
      simulator.Run();
      ASSERT_TRUE(result.ok());
      ByteReader r(*result);
      EXPECT_EQ(r.ReadString().value(), value) << key;
    }
  }
  EXPECT_EQ(master.version(), 60u);
  EXPECT_EQ(slave1.version(), 60u);
  EXPECT_EQ(slave2.version(), 60u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationModelTest, ::testing::Values(5, 6, 7));

// ---------------------------------------------------------------- DNS cache freshness

TEST(DnsCacheFreshnessTest, NeverServesExpiredRecords) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  dns::TsigKeyTable keys{{"gdn-na", ToBytes("k")}, {"axfr", ToBytes("k2")}};

  dns::AuthoritativeServer server(&transport, world.hosts[0], keys);
  dns::Zone zone("z.nl", 60);
  ASSERT_TRUE(zone.Add({"a.z.nl", dns::RrType::kTxt, /*ttl=*/100, "version1"}).ok());
  server.AddZone(std::move(zone), true);

  dns::CachingResolver resolver(&transport, world.hosts[2]);
  resolver.AddUpstream("z.nl", server.endpoint());
  dns::DnsClient client(&transport, world.hosts[3], resolver.endpoint());

  auto resolve = [&]() {
    dns::QueryResponse out;
    client.Resolve("a.z.nl", dns::RrType::kTxt, [&](Result<dns::QueryResponse> r) {
      ASSERT_TRUE(r.ok());
      out = std::move(*r);
    });
    simulator.Run();
    return out;
  };

  // Warm the cache, then change the record upstream via TSIG update.
  EXPECT_EQ(resolve().answers[0].data, "version1");
  dns::UpdateRequest update;
  update.zone = "z.nl";
  update.deletions.push_back({"a.z.nl", dns::RrType::kTxt, false});
  update.additions.push_back({"a.z.nl", dns::RrType::kTxt, 100, "version2"});
  update.key_name = "gdn-na";
  update.sequence = 1;
  dns::TsigSign(&update, keys["gdn-na"]);
  sim::Channel rpc(&transport, world.hosts[3]);
  rpc.Call(server.endpoint(), "dns.update", update.Serialize(), [](Result<sim::PayloadView>) {});
  simulator.Run();

  // Within the TTL a stale cached answer is legal (that is DNS semantics); once the
  // TTL has certainly elapsed the resolver MUST serve the new record — a cache entry
  // may never outlive its TTL. The explicit RunUntil sleeps advance the clock past
  // the 100 s TTL (a drained resolve() itself now only costs round-trip time, since
  // answered calls erase their deadline events).
  simulator.RunUntil(simulator.Now() + 50 * sim::kSecond);
  (void)resolve();  // mid-TTL: either version is acceptable, must not crash
  simulator.RunUntil(simulator.Now() + 101 * sim::kSecond);
  dns::QueryResponse after = resolve();
  ASSERT_FALSE(after.answers.empty());
  EXPECT_EQ(after.answers[0].data, "version2");
}

}  // namespace
}  // namespace globe
