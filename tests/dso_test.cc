// Tests for the distributed-shared-object model: invocation marshalling, the four
// replication protocols behind the standard replication interface, the
// implementation repository, and binding through the run-time system.

#include <gtest/gtest.h>

#include <algorithm>

#include <map>

#include "src/dso/active_repl.h"
#include "src/dso/cache_inval.h"
#include "src/dso/client_server.h"
#include "src/dso/control.h"
#include "src/dso/master_slave.h"
#include "src/dso/protocols.h"
#include "src/dso/repository.h"
#include "src/dso/runtime.h"
#include "src/gls/deploy.h"
#include "src/sim/backend.h"
#include "tests/test_util.h"

namespace globe::dso {
namespace {

using sim::BuildUniformWorld;
using sim::NodeId;
using sim::UniformWorld;

using testutil::KvGet;
using testutil::KvObject;
using testutil::KvPut;

// ---------------------------------------------------------------- Invocation

TEST(InvocationTest, SerializationRoundTrip) {
  Invocation invocation = KvPut("gimp", "1.1.29");
  auto restored = wire::Decode<Invocation>(wire::Encode(invocation));
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->method, "put");
  EXPECT_EQ(restored->args, invocation.args);
  EXPECT_FALSE(restored->read_only);
}

TEST(InvocationTest, MalformedRejected) {
  EXPECT_FALSE(wire::Decode<Invocation>(Bytes{0xff, 0xff, 0xff}).ok());
}

// ---------------------------------------------------------------- Fixture

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : world_(BuildUniformWorld({2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        transport_(&network_) {}

  // Synchronous invoke helper.
  Result<Bytes> InvokeSync(ReplicationObject* replication, const Invocation& invocation) {
    Result<Bytes> out = Unavailable("pending");
    replication->Invoke(invocation,
                        [&](Result<Bytes> result) { out = std::move(result); });
    simulator_.Run();
    return out;
  }

  void StartSync(ReplicationObject* replication) {
    Status status = InvalidArgument("pending");
    replication->Start([&](Status s) { status = s; });
    simulator_.Run();
    ASSERT_TRUE(status.ok()) << status;
  }

  std::string GetSync(ReplicationObject* replication, const std::string& key) {
    auto result = InvokeSync(replication, KvGet(key));
    if (!result.ok()) {
      return "<error: " + result.status().ToString() + ">";
    }
    ByteReader r(*result);
    return r.ReadString().value();
  }

  // A replica of `protocol` built through the factory; a follower finds its
  // primary among `peers`.
  std::unique_ptr<ReplicationObject> MakeReplicaOf(
      gls::ProtocolId protocol, NodeId host, gls::ReplicaRole role,
      std::vector<gls::ContactAddress> peers = {}, AccessHook hook = nullptr) {
    ReplicaSetup setup;
    setup.transport = &transport_;
    setup.host = host;
    setup.semantics = std::make_unique<KvObject>();
    setup.role = role;
    setup.peers = std::move(peers);
    setup.access_hook = std::move(hook);
    auto replica = MakeReplica(protocol, std::move(setup));
    EXPECT_TRUE(replica.ok()) << replica.status();
    return replica.ok() ? std::move(*replica) : nullptr;
  }

  sim::Simulator simulator_;
  UniformWorld world_;
  sim::Network network_;
  sim::PlainTransport transport_;
};

// ---------------------------------------------------------------- Client/server

TEST_F(ProtocolTest, ClientServerBasicFlow) {
  ClientServerServer server(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  RemoteProxy proxy(&transport_, world_.hosts[5], *server.contact_address());

  ASSERT_TRUE(InvokeSync(&proxy, KvPut("gimp", "1.1.29")).ok());
  EXPECT_EQ(GetSync(&proxy, "gimp"), "1.1.29");
  EXPECT_EQ(server.version(), 1u);
  EXPECT_EQ(GetSync(&server, "gimp"), "1.1.29");  // local invoke on the server side
}

TEST_F(ProtocolTest, ClientServerErrorsPropagate) {
  ClientServerServer server(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  RemoteProxy proxy(&transport_, world_.hosts[5], *server.contact_address());
  auto result = InvokeSync(&proxy, KvGet("missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(ProtocolTest, ClientServerReadsDoNotBumpVersion) {
  ClientServerServer server(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  InvokeSync(&server, KvPut("a", "1"));
  uint64_t v = server.version();
  InvokeSync(&server, KvGet("a"));
  EXPECT_EQ(server.version(), v);
}

// ---------------------------------------------------------------- Master/slave

TEST_F(ProtocolTest, MasterSlaveReplicationFlow) {
  MasterSlaveMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  ASSERT_TRUE(InvokeSync(&master, KvPut("tetex", "1.0")).ok());

  MasterSlaveSlave slave(&transport_, world_.hosts[4], std::make_unique<KvObject>(),
                         master.contact_address()->endpoint);
  StartSync(&slave);
  // Snapshot transferred at registration.
  EXPECT_EQ(slave.version(), 1u);
  EXPECT_EQ(GetSync(&slave, "tetex"), "1.0");
  EXPECT_EQ(master.num_slaves(), 1u);

  // A write through the slave reaches the master and is pushed back.
  ASSERT_TRUE(InvokeSync(&slave, KvPut("gimp", "1.1")).ok());
  EXPECT_EQ(master.version(), 2u);
  EXPECT_EQ(slave.version(), 2u);
  EXPECT_EQ(GetSync(&slave, "gimp"), "1.1");

  // Reads at the slave stay local: no master traffic.
  uint64_t master_received_before = network_.per_node_received().count(world_.hosts[0])
                                        ? network_.per_node_received().at(world_.hosts[0])
                                        : 0;
  GetSync(&slave, "gimp");
  uint64_t master_received_after = network_.per_node_received().at(world_.hosts[0]);
  EXPECT_EQ(master_received_after, master_received_before);
}

TEST_F(ProtocolTest, MasterSlavePushReachesAllSlaves) {
  MasterSlaveMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  MasterSlaveSlave slave1(&transport_, world_.hosts[2], std::make_unique<KvObject>(),
                          master.contact_address()->endpoint);
  MasterSlaveSlave slave2(&transport_, world_.hosts[6], std::make_unique<KvObject>(),
                          master.contact_address()->endpoint);
  StartSync(&slave1);
  StartSync(&slave2);

  ASSERT_TRUE(InvokeSync(&master, KvPut("linux", "2.2.14")).ok());
  EXPECT_EQ(slave1.version(), 1u);
  EXPECT_EQ(slave2.version(), 1u);
  EXPECT_EQ(GetSync(&slave1, "linux"), "2.2.14");
  EXPECT_EQ(GetSync(&slave2, "linux"), "2.2.14");
}

TEST_F(ProtocolTest, MasterSlaveSurvivesDeadSlave) {
  MasterSlaveMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  MasterSlaveSlave slave(&transport_, world_.hosts[2], std::make_unique<KvObject>(),
                         master.contact_address()->endpoint);
  StartSync(&slave);
  network_.SetNodeUp(world_.hosts[2], false);

  // The write must still complete (after the push times out).
  auto result = InvokeSync(&master, KvPut("k", "v"));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(master.version(), 1u);
}

TEST_F(ProtocolTest, MasterSlaveUnregisterStopsPushes) {
  MasterSlaveMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  MasterSlaveSlave slave(&transport_, world_.hosts[2], std::make_unique<KvObject>(),
                         master.contact_address()->endpoint);
  StartSync(&slave);
  Status status = InvalidArgument("pending");
  slave.Shutdown([&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(master.num_slaves(), 0u);

  InvokeSync(&master, KvPut("k", "v"));
  EXPECT_EQ(slave.version(), 0u);  // no longer updated
}

TEST_F(ProtocolTest, StaleEpochPushIsFencedAndWriteNotAcked) {
  MasterSlaveMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  MasterSlaveSlave slave(&transport_, world_.hosts[2], std::make_unique<KvObject>(),
                         master.contact_address()->endpoint);
  StartSync(&slave);

  // The slave moved to a newer membership epoch (as it would after adopting an
  // elected master): the old master's push must be refused and — since an
  // unreplicated write must not be acknowledged — the write fails.
  slave.set_epoch(7);
  auto result = InvokeSync(&master, KvPut("k", "v"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(slave.version(), 0u);  // the fenced push was never applied
  EXPECT_EQ(master.group()->stats().pushes_fenced, 1u);
  EXPECT_EQ(slave.group()->stats().stale_rejected, 1u);
}

TEST_F(ProtocolTest, RoleTransitionTableIsEnforced) {
  EXPECT_TRUE(RoleTransitionAllowed(GroupRole::kSlave, GroupRole::kMaster));
  EXPECT_TRUE(RoleTransitionAllowed(GroupRole::kMaster, GroupRole::kSlave));
  EXPECT_FALSE(RoleTransitionAllowed(GroupRole::kCache, GroupRole::kMaster));
  EXPECT_FALSE(RoleTransitionAllowed(GroupRole::kMaster, GroupRole::kCache));
  EXPECT_FALSE(RoleTransitionAllowed(GroupRole::kPeer, GroupRole::kMaster));
  EXPECT_TRUE(RoleTransitionAllowed(GroupRole::kMaster, GroupRole::kMaster));
}

// ---------------------------------------------------------------- Active replication

TEST_F(ProtocolTest, ActiveReplicationAppliesWritesEverywhere) {
  ActiveReplMember sequencer(&transport_, world_.hosts[0], std::make_unique<KvObject>(),
                             sim::Endpoint{sim::kNoNode, 0});
  ActiveReplMember member1(&transport_, world_.hosts[2], std::make_unique<KvObject>(),
                           sequencer.contact_address()->endpoint);
  ActiveReplMember member2(&transport_, world_.hosts[6], std::make_unique<KvObject>(),
                           sequencer.contact_address()->endpoint);
  StartSync(&member1);
  StartSync(&member2);
  EXPECT_EQ(sequencer.num_members(), 2u);

  // Write through a non-sequencer member.
  ASSERT_TRUE(InvokeSync(&member1, KvPut("gcc", "2.95")).ok());
  EXPECT_EQ(sequencer.version(), 1u);
  EXPECT_EQ(member1.version(), 1u);
  EXPECT_EQ(member2.version(), 1u);
  EXPECT_EQ(GetSync(&member2, "gcc"), "2.95");
}

TEST_F(ProtocolTest, ActiveReplicationOrdersConcurrentWrites) {
  ActiveReplMember sequencer(&transport_, world_.hosts[0], std::make_unique<KvObject>(),
                             sim::Endpoint{sim::kNoNode, 0});
  ActiveReplMember member1(&transport_, world_.hosts[2], std::make_unique<KvObject>(),
                           sequencer.contact_address()->endpoint);
  ActiveReplMember member2(&transport_, world_.hosts[6], std::make_unique<KvObject>(),
                           sequencer.contact_address()->endpoint);
  StartSync(&member1);
  StartSync(&member2);

  // Two concurrent writes to the same key from different members: all replicas must
  // converge on the same final value.
  member1.Invoke(KvPut("k", "from1"), [](Result<Bytes>) {});
  member2.Invoke(KvPut("k", "from2"), [](Result<Bytes>) {});
  simulator_.Run();

  EXPECT_EQ(sequencer.version(), 2u);
  EXPECT_EQ(member1.version(), 2u);
  EXPECT_EQ(member2.version(), 2u);
  std::string v0 = GetSync(&sequencer, "k");
  EXPECT_EQ(GetSync(&member1, "k"), v0);
  EXPECT_EQ(GetSync(&member2, "k"), v0);
}

TEST_F(ProtocolTest, ActiveReplicationLateJoinerGetsSnapshot) {
  ActiveReplMember sequencer(&transport_, world_.hosts[0], std::make_unique<KvObject>(),
                             sim::Endpoint{sim::kNoNode, 0});
  InvokeSync(&sequencer, KvPut("a", "1"));
  InvokeSync(&sequencer, KvPut("b", "2"));

  ActiveReplMember late(&transport_, world_.hosts[7], std::make_unique<KvObject>(),
                        sequencer.contact_address()->endpoint);
  StartSync(&late);
  EXPECT_EQ(late.version(), 2u);
  EXPECT_EQ(GetSync(&late, "b"), "2");
}

TEST_F(ProtocolTest, StaleEpochApplyIsFencedAtActiveMembers) {
  ActiveReplMember sequencer(&transport_, world_.hosts[0], std::make_unique<KvObject>(),
                             sim::Endpoint{sim::kNoNode, 0});
  ActiveReplMember member(&transport_, world_.hosts[2], std::make_unique<KvObject>(),
                          sequencer.contact_address()->endpoint);
  StartSync(&member);

  member.set_epoch(3);
  auto result = InvokeSync(&sequencer, KvPut("k", "v"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(member.version(), 0u);
  EXPECT_EQ(sequencer.group()->stats().pushes_fenced, 1u);
}

// ---------------------------------------------------------------- Cache/invalidate

TEST_F(ProtocolTest, CacheFetchesLazilyAndServesReads) {
  CacheInvalMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  InvokeSync(&master, KvPut("gimp", "1.0"));

  CacheInvalCache cache(&transport_, world_.hosts[6], std::make_unique<KvObject>(),
                        master.contact_address()->endpoint);
  StartSync(&cache);
  EXPECT_FALSE(cache.valid());  // registration transfers no state
  EXPECT_EQ(cache.fetches(), 0u);

  // First read faults the state in; the second is local.
  EXPECT_EQ(GetSync(&cache, "gimp"), "1.0");
  EXPECT_EQ(cache.fetches(), 1u);
  EXPECT_EQ(GetSync(&cache, "gimp"), "1.0");
  EXPECT_EQ(cache.fetches(), 1u);
  EXPECT_EQ(master.fetches_served(), 1u);
}

TEST_F(ProtocolTest, WriteInvalidatesCaches) {
  CacheInvalMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  CacheInvalCache cache(&transport_, world_.hosts[6], std::make_unique<KvObject>(),
                        master.contact_address()->endpoint);
  StartSync(&cache);
  InvokeSync(&master, KvPut("gimp", "1.0"));
  EXPECT_EQ(GetSync(&cache, "gimp"), "1.0");
  ASSERT_TRUE(cache.valid());

  // A write through the master invalidates; the next read re-fetches the new value.
  InvokeSync(&master, KvPut("gimp", "1.1"));
  EXPECT_FALSE(cache.valid());
  EXPECT_EQ(GetSync(&cache, "gimp"), "1.1");
  EXPECT_EQ(cache.fetches(), 2u);
}

TEST_F(ProtocolTest, CacheForwardsWritesToMaster) {
  CacheInvalMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  CacheInvalCache cache(&transport_, world_.hosts[6], std::make_unique<KvObject>(),
                        master.contact_address()->endpoint);
  StartSync(&cache);

  ASSERT_TRUE(InvokeSync(&cache, KvPut("k", "v")).ok());
  EXPECT_EQ(master.version(), 1u);
  EXPECT_EQ(GetSync(&master, "k"), "v");
}

TEST_F(ProtocolTest, CacheUnregisterStopsInvalidations) {
  CacheInvalMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  CacheInvalCache cache(&transport_, world_.hosts[6], std::make_unique<KvObject>(),
                        master.contact_address()->endpoint);
  StartSync(&cache);
  GetSync(&cache, "nokey");  // faults in (empty) state
  Status status;
  cache.Shutdown([&](Status s) { status = s; });
  simulator_.Run();
  EXPECT_EQ(master.num_caches(), 0u);
}

// A small invalidation can overtake a large fetch answer on the wire. The
// cache must then stay invalid at the fetched version: the read that issued
// the fetch may use it, the next read must fetch again.
TEST_F(ProtocolTest, InvalidationOvertakingAFetchLeavesTheCacheInvalid) {
  CacheInvalMaster master(&transport_, world_.hosts[0], std::make_unique<KvObject>());
  InvokeSync(&master, KvPut("bulk", std::string(200 * 1024, 'x')));
  InvokeSync(&master, KvPut("k", "old"));
  CacheInvalCache cache(&transport_, world_.hosts[6], std::make_unique<KvObject>(),
                        master.contact_address()->endpoint);
  StartSync(&cache);

  Result<Bytes> first = Unavailable("pending");
  cache.Invoke(KvGet("k"), [&](Result<Bytes> r) { first = std::move(r); });
  while (master.fetches_served() == 0 && simulator_.Step()) {
  }
  ASSERT_EQ(master.fetches_served(), 1u);
  // The fetch answer (version 2, ~200 KB) is on the wire; this write's
  // invalidation (version 3) overtakes it.
  ASSERT_TRUE(InvokeSync(&master, KvPut("k", "new")).ok());
  ASSERT_TRUE(first.ok()) << first.status();

  EXPECT_EQ(GetSync(&cache, "k"), "new");
  EXPECT_EQ(cache.version(), master.version());
}

// Protocols with followers that join the primary: master/slave and active.
class FollowerProtocolTest : public ProtocolTest,
                             public ::testing::WithParamInterface<gls::ProtocolId> {};

// A member that shut down has left its primary: the next write fans out to
// nobody instead of retrying a departed member for the whole retry budget.
TEST_P(FollowerProtocolTest, ShutdownMemberHasLeftThePrimary) {
  auto primary = MakeReplicaOf(GetParam(), world_.hosts[0], gls::ReplicaRole::kMaster);
  auto member = MakeReplicaOf(GetParam(), world_.hosts[2], gls::ReplicaRole::kSlave,
                              {*primary->contact_address()});
  StartSync(member.get());
  ASSERT_EQ(primary->group()->num_members(), 1u);

  Status status = InvalidArgument("pending");
  member->Shutdown([&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;
  member.reset();

  sim::SimTime issued = simulator_.Now();
  sim::SimTime acked_at = 0;
  Result<Bytes> result = Unavailable("pending");
  primary->Invoke(KvPut("k", "v"), [&](Result<Bytes> r) {
    result = std::move(r);
    acked_at = simulator_.Now();
  });
  simulator_.Run();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(acked_at, issued);
  EXPECT_EQ(primary->group()->num_members(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, FollowerProtocolTest,
                         ::testing::Values(kProtoMasterSlave, kProtoActiveRepl));

// ---------------------------------------------------------------- Factories

TEST_F(ProtocolTest, MakeReplicaRejectsUnknownProtocol) {
  ReplicaSetup setup;
  setup.transport = &transport_;
  setup.host = world_.hosts[0];
  setup.semantics = std::make_unique<KvObject>();
  auto result = MakeReplica(99, std::move(setup));
  EXPECT_FALSE(result.ok());
}

TEST_F(ProtocolTest, MakeReplicaRequiresSemantics) {
  ReplicaSetup setup;
  setup.transport = &transport_;
  setup.host = world_.hosts[0];
  auto result = MakeReplica(kProtoClientServer, std::move(setup));
  EXPECT_FALSE(result.ok());
}

TEST_F(ProtocolTest, SlaveSetupRequiresKnownMaster) {
  ReplicaSetup setup;
  setup.transport = &transport_;
  setup.host = world_.hosts[0];
  setup.semantics = std::make_unique<KvObject>();
  setup.role = gls::ReplicaRole::kSlave;
  auto result = MakeReplica(kProtoMasterSlave, std::move(setup));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ProtocolTest, NearestAddressPicksClosest) {
  std::vector<gls::ContactAddress> addresses = {
      {{world_.hosts[7], 100}, kProtoClientServer, gls::ReplicaRole::kSlave},
      {{world_.hosts[1], 100}, kProtoClientServer, gls::ReplicaRole::kSlave},
  };
  auto nearest = NearestAddress(&transport_, world_.hosts[0], addresses);
  ASSERT_TRUE(nearest.ok());
  EXPECT_EQ(nearest->endpoint.node, world_.hosts[1]);
}

// ---------------------------------------------------------------- Repository

TEST(RepositoryTest, RegisterAndInstantiate) {
  ImplementationRepository repository;
  repository.RegisterSemantics(std::make_unique<KvObject>());
  ASSERT_TRUE(repository.Has(KvObject::kTypeId));
  auto instance = repository.Instantiate(KvObject::kTypeId);
  ASSERT_TRUE(instance.ok());
  EXPECT_EQ((*instance)->type_id(), KvObject::kTypeId);
}

TEST(RepositoryTest, UnknownTypeFails) {
  ImplementationRepository repository;
  EXPECT_FALSE(repository.Instantiate(42).ok());
}

// ---------------------------------------------------------------- Runtime binding

class RuntimeTest : public ProtocolTest {
 protected:
  RuntimeTest() : deployment_(&transport_, &world_.topology, nullptr) {
    repository_.RegisterSemantics(std::make_unique<KvObject>());
  }

  // Creates a master replica on `host`, registers it in the GLS, returns its OID.
  gls::ObjectId CreateObject(NodeId host, gls::ProtocolId protocol) {
    ReplicaSetup setup;
    setup.transport = &transport_;
    setup.host = host;
    setup.semantics = std::make_unique<KvObject>();
    setup.role = gls::ReplicaRole::kMaster;
    auto replica = MakeReplica(protocol, std::move(setup));
    EXPECT_TRUE(replica.ok());
    masters_.push_back(std::move(*replica));

    Rng rng(masters_.size());
    gls::ObjectId oid = gls::ObjectId::Generate(&rng);
    auto client = deployment_.MakeClient(host);
    Status status = InvalidArgument("pending");
    client->Insert(oid, *masters_.back()->contact_address(),
                   [&](Status s) { status = s; });
    simulator_.Run();
    EXPECT_TRUE(status.ok()) << status;
    return oid;
  }

  std::unique_ptr<BoundObject> BindSync(RuntimeSystem* runtime, const gls::ObjectId& oid,
                                        BindOptions options = {}) {
    std::unique_ptr<BoundObject> bound;
    Status status = InvalidArgument("pending");
    runtime->Bind(oid, std::move(options),
                  [&](Result<std::unique_ptr<BoundObject>> result) {
                    if (result.ok()) {
                      bound = std::move(*result);
                      status = OkStatus();
                    } else {
                      status = result.status();
                    }
                  });
    simulator_.Run();
    EXPECT_TRUE(status.ok()) << status;
    return bound;
  }

  gls::GlsDeployment deployment_;
  ImplementationRepository repository_;
  std::vector<std::unique_ptr<ReplicationObject>> masters_;
};

TEST_F(RuntimeTest, BindProxyAndInvoke) {
  gls::ObjectId oid = CreateObject(world_.hosts[0], kProtoClientServer);
  RuntimeSystem runtime(&transport_, world_.hosts[5],
                        deployment_.LeafDirectoryFor(world_.hosts[5]), &repository_);

  auto bound = BindSync(&runtime, oid);
  ASSERT_NE(bound, nullptr);

  Result<Bytes> result = Unavailable("pending");
  bound->Invoke(KvPut("a", "1"), [&](Result<Bytes> r) { result = std::move(r); });
  simulator_.Run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(runtime.stats().binds, 1u);
}

TEST_F(RuntimeTest, BindUnknownOidFails) {
  RuntimeSystem runtime(&transport_, world_.hosts[5],
                        deployment_.LeafDirectoryFor(world_.hosts[5]), &repository_);
  Rng rng(77);
  Status status = OkStatus();
  runtime.Bind(gls::ObjectId::Generate(&rng), {},
               [&](Result<std::unique_ptr<BoundObject>> result) {
                 status = result.status();
               });
  simulator_.Run();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(runtime.stats().bind_failures, 1u);
}

TEST_F(RuntimeTest, BindAsCacheReplicaRegistersInGls) {
  gls::ObjectId oid = CreateObject(world_.hosts[0], kProtoCacheInval);

  RuntimeSystem httpd(&transport_, world_.hosts[6],
                      deployment_.LeafDirectoryFor(world_.hosts[6]), &repository_);
  BindOptions options;
  options.as_replica = gls::ReplicaRole::kCache;
  options.semantics_type = KvObject::kTypeId;
  auto bound = BindSync(&httpd, oid, options);
  ASSERT_NE(bound, nullptr);
  EXPECT_EQ(httpd.stats().replicas_installed, 1u);

  // The bind published the replica: the GLS serves its contact address.
  auto gls = deployment_.MakeClient(world_.hosts[6]);
  std::vector<gls::ContactAddress> registered;
  gls->LookupAll(oid, [&](Result<gls::LookupResult> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    registered = r->addresses;
  });
  simulator_.Run();
  EXPECT_NE(std::find(registered.begin(), registered.end(),
                      *bound->replication->contact_address()),
            registered.end());

  // A second client near the HTTPD now finds the cache replica, not the master.
  RuntimeSystem nearby(&transport_, world_.hosts[7],
                       deployment_.LeafDirectoryFor(world_.hosts[7]), &repository_);
  auto second = BindSync(&nearby, oid);
  ASSERT_NE(second, nullptr);
  auto* proxy = dynamic_cast<RemoteProxy*>(second->replication.get());
  ASSERT_NE(proxy, nullptr);
  EXPECT_EQ(proxy->peer().endpoint.node, world_.hosts[6]);
  EXPECT_EQ(proxy->peer().role, gls::ReplicaRole::kCache);

  // Unbind deregisters from the GLS again.
  Status unbind_status = InvalidArgument("pending");
  httpd.Unbind(std::move(bound), [&](Status s) { unbind_status = s; });
  simulator_.Run();
  EXPECT_TRUE(unbind_status.ok()) << unbind_status;

  auto third = BindSync(&nearby, oid);
  ASSERT_NE(third, nullptr);
  auto* proxy3 = dynamic_cast<RemoteProxy*>(third->replication.get());
  ASSERT_NE(proxy3, nullptr);
  EXPECT_EQ(proxy3->peer().endpoint.node, world_.hosts[0]);  // back to the master
}

TEST_F(RuntimeTest, BindAsReplicaWithoutImplementationFails) {
  gls::ObjectId oid = CreateObject(world_.hosts[0], kProtoCacheInval);
  RuntimeSystem runtime(&transport_, world_.hosts[6],
                        deployment_.LeafDirectoryFor(world_.hosts[6]), &repository_);
  BindOptions options;
  options.as_replica = gls::ReplicaRole::kCache;
  options.semantics_type = 999;  // not registered
  Status status = OkStatus();
  runtime.Bind(oid, options, [&](Result<std::unique_ptr<BoundObject>> result) {
    status = result.status();
  });
  simulator_.Run();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

// Parameterized across protocols: a master + a client proxy always gives
// read-your-writes through the proxy.
class AllProtocolsTest : public RuntimeTest,
                         public ::testing::WithParamInterface<gls::ProtocolId> {};

TEST_P(AllProtocolsTest, ProxyReadYourWrites) {
  gls::ObjectId oid = CreateObject(world_.hosts[0], GetParam());
  RuntimeSystem runtime(&transport_, world_.hosts[3],
                        deployment_.LeafDirectoryFor(world_.hosts[3]), &repository_);
  auto bound = BindSync(&runtime, oid);
  ASSERT_NE(bound, nullptr);

  Status write_status = Unavailable("pending");
  bound->Call(testutil::kKvPut, {"key", "value"},
              [&](Result<sim::EmptyMessage> r) { write_status = r.status(); });
  simulator_.Run();
  ASSERT_TRUE(write_status.ok()) << write_status;

  Result<testutil::KvValue> read_result = Unavailable("pending");
  bound->Call(testutil::kKvGet, {"key"},
              [&](Result<testutil::KvValue> r) { read_result = std::move(r); });
  simulator_.Run();
  ASSERT_TRUE(read_result.ok()) << read_result.status();
  EXPECT_EQ(read_result->value, "value");
}

// Every protocol's primary: a write the semantics rejects is not a write. The
// version stays put and no access sample is recorded.
TEST_P(AllProtocolsTest, RejectedWriteLeavesVersionAndTelemetryUntouched) {
  std::vector<AccessSample> samples;
  auto primary = MakeReplicaOf(GetParam(), world_.hosts[0], gls::ReplicaRole::kMaster, {},
                               [&](const AccessSample& s) { samples.push_back(s); });
  auto result = InvokeSync(primary.get(), Invocation{"no_such_write", {}, false});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(primary->version(), 0u);
  EXPECT_TRUE(samples.empty());
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllProtocolsTest,
                         ::testing::Values(kProtoClientServer, kProtoMasterSlave,
                                           kProtoActiveRepl, kProtoCacheInval));

}  // namespace
}  // namespace globe::dso
