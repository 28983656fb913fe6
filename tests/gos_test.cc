// Tests for the Globe Object Server: replica creation commands, authorization,
// checkpoint/restore across reboots, and GLS bookkeeping.

#include <gtest/gtest.h>

#include "src/dso/wire.h"
#include "src/gdn/world.h"
#include "src/gls/deploy.h"
#include "src/gos/object_server.h"
#include "src/sec/secure_transport.h"
#include "tests/test_util.h"
#include "src/sim/backend.h"

namespace globe::gos {
namespace {

using sim::BuildUniformWorld;
using sim::NodeId;
using sim::UniformWorld;
using testutil::KvGet;
using testutil::KvObject;
using testutil::KvPut;

class GosTest : public ::testing::Test {
 protected:
  GosTest()
      : world_(BuildUniformWorld({2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        transport_(&network_),
        deployment_(&transport_, &world_.topology, nullptr) {
    repository_.RegisterSemantics(std::make_unique<KvObject>());
    gos_a_ = std::make_unique<ObjectServer>(&transport_, world_.hosts[0], &repository_,
                                            deployment_.LeafDirectoryFor(world_.hosts[0]),
                                            nullptr);
    gos_b_ = std::make_unique<ObjectServer>(&transport_, world_.hosts[6], &repository_,
                                            deployment_.LeafDirectoryFor(world_.hosts[6]),
                                            nullptr);
  }

  gls::ObjectId CreateFirstSync(ObjectServer* gos, gls::ProtocolId protocol) {
    gls::ObjectId oid;
    Status status = InvalidArgument("pending");
    gos->CreateFirstReplica(protocol, KvObject::kTypeId,
                            [&](Result<std::pair<gls::ObjectId, gls::ContactAddress>> r) {
                              if (r.ok()) {
                                oid = r->first;
                                status = OkStatus();
                              } else {
                                status = r.status();
                              }
                            });
    simulator_.Run();
    EXPECT_TRUE(status.ok()) << status;
    return oid;
  }

  Status CreateReplicaSync(ObjectServer* gos, const gls::ObjectId& oid,
                           gls::ReplicaRole role) {
    Status status = InvalidArgument("pending");
    gos->CreateReplica(oid, KvObject::kTypeId, role,
                       [&](Result<std::pair<gls::ObjectId, gls::ContactAddress>> r) {
                         status = r.ok() ? OkStatus() : r.status();
                       });
    simulator_.Run();
    return status;
  }

  Result<Bytes> InvokeSync(dso::ReplicationObject* replication,
                           const dso::Invocation& invocation) {
    Result<Bytes> out = Unavailable("pending");
    replication->Invoke(invocation, [&](Result<Bytes> r) { out = std::move(r); });
    simulator_.Run();
    return out;
  }

  sim::Simulator simulator_;
  UniformWorld world_;
  sim::Network network_;
  sim::PlainTransport transport_;
  gls::GlsDeployment deployment_;
  dso::ImplementationRepository repository_;
  std::unique_ptr<ObjectServer> gos_a_, gos_b_;
};

TEST_F(GosTest, CreateFirstReplicaAllocatesOidAndRegisters) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoMasterSlave);
  EXPECT_FALSE(oid.IsNil());
  EXPECT_EQ(gos_a_->num_replicas(), 1u);

  // The contact address is findable worldwide.
  auto client = deployment_.MakeClient(world_.hosts[7]);
  bool found = false;
  client->Lookup(oid, [&](Result<gls::LookupResult> r) { found = r.ok(); });
  simulator_.Run();
  EXPECT_TRUE(found);
}

TEST_F(GosTest, SecondaryReplicaJoinsAndReplicates) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoMasterSlave);
  ASSERT_TRUE(CreateReplicaSync(gos_b_.get(), oid, gls::ReplicaRole::kSlave).ok());

  // Write at the master; the slave sees it.
  auto* master = gos_a_->FindReplica(oid);
  auto* slave = gos_b_->FindReplica(oid);
  ASSERT_NE(master, nullptr);
  ASSERT_NE(slave, nullptr);
  ASSERT_TRUE(InvokeSync(master, KvPut("gimp", "1.1.29")).ok());
  EXPECT_EQ(slave->version(), 1u);
  auto read = InvokeSync(slave, KvGet("gimp"));
  ASSERT_TRUE(read.ok());
}

TEST_F(GosTest, CreateReplicaForUnknownObjectFails) {
  Rng rng(5);
  Status status = CreateReplicaSync(gos_b_.get(), gls::ObjectId::Generate(&rng),
                                    gls::ReplicaRole::kSlave);
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(GosTest, DuplicateReplicaOnSameServerFails) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoClientServer);
  Status status = InvalidArgument("pending");
  gos_a_->CreateReplica(oid, KvObject::kTypeId, gls::ReplicaRole::kSlave,
                        [&](Result<std::pair<gls::ObjectId, gls::ContactAddress>> r) {
                          status = r.ok() ? OkStatus() : r.status();
                        });
  simulator_.Run();
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST_F(GosTest, RemoveReplicaDeregistersFromGls) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoClientServer);
  Status status = InvalidArgument("pending");
  gos_a_->RemoveReplica(oid, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(gos_a_->num_replicas(), 0u);

  auto client = deployment_.MakeClient(world_.hosts[7]);
  Status lookup_status = OkStatus();
  client->Lookup(oid, [&](Result<gls::LookupResult> r) { lookup_status = r.status(); });
  simulator_.Run();
  EXPECT_EQ(lookup_status.code(), StatusCode::kNotFound);
}

TEST_F(GosTest, CheckpointAndRestoreRebuildsState) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoClientServer);
  auto* replica = gos_a_->FindReplica(oid);
  ASSERT_TRUE(InvokeSync(replica, KvPut("linux", "2.2.14")).ok());
  ASSERT_TRUE(InvokeSync(replica, KvPut("gcc", "2.95")).ok());
  uint64_t version_before = replica->version();

  Bytes checkpoint = gos_a_->Checkpoint();

  // "Reboot": take the node down, destroy the server, bring up a fresh one, restore.
  network_.SetNodeUp(world_.hosts[0], false);
  gos_a_.reset();
  network_.SetNodeUp(world_.hosts[0], true);
  gos_a_ = std::make_unique<ObjectServer>(&transport_, world_.hosts[0], &repository_,
                                          deployment_.LeafDirectoryFor(world_.hosts[0]),
                                          nullptr);
  Status restore_status = InvalidArgument("pending");
  gos_a_->Restore(checkpoint, [&](Status s) { restore_status = s; });
  simulator_.Run();
  ASSERT_TRUE(restore_status.ok()) << restore_status;
  ASSERT_EQ(gos_a_->num_replicas(), 1u);

  // State and version survived.
  auto* restored = gos_a_->FindReplica(oid);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->version(), version_before);
  auto read = InvokeSync(restored, KvGet("gcc"));
  ASSERT_TRUE(read.ok());
  ByteReader r(*read);
  EXPECT_EQ(r.ReadString().value(), "2.95");

  // And the GLS points at the *new* contact address: a fresh bind works end to end.
  auto client = deployment_.MakeClient(world_.hosts[7]);
  std::vector<gls::ContactAddress> addresses;
  client->Lookup(oid, [&](Result<gls::LookupResult> r2) {
    ASSERT_TRUE(r2.ok());
    addresses = r2->addresses;
  });
  simulator_.Run();
  ASSERT_EQ(addresses.size(), 1u);
  EXPECT_EQ(addresses[0], *restored->contact_address());
}

TEST_F(GosTest, RestoreReregistersAllReplicasInOneBatch) {
  std::vector<gls::ObjectId> oids;
  for (int i = 0; i < 4; ++i) {
    oids.push_back(CreateFirstSync(gos_a_.get(), dso::kProtoClientServer));
  }
  Bytes checkpoint = gos_a_->Checkpoint();

  network_.SetNodeUp(world_.hosts[0], false);
  gos_a_.reset();
  network_.SetNodeUp(world_.hosts[0], true);
  gos_a_ = std::make_unique<ObjectServer>(&transport_, world_.hosts[0], &repository_,
                                          deployment_.LeafDirectoryFor(world_.hosts[0]),
                                          nullptr);

  auto leaf_subnodes =
      deployment_.SubnodesOf(world_.topology.NodeDomain(world_.hosts[0]));
  ASSERT_EQ(leaf_subnodes.size(), 1u);
  uint64_t batches_before = leaf_subnodes[0]->stats().insert_requests;
  uint64_t inserts_before = leaf_subnodes[0]->stats().inserts;

  Status restore_status = InvalidArgument("pending");
  gos_a_->Restore(checkpoint, [&](Status s) { restore_status = s; });
  simulator_.Run();
  ASSERT_TRUE(restore_status.ok()) << restore_status;
  ASSERT_EQ(gos_a_->num_replicas(), 4u);

  // All four fresh addresses went to the leaf directory in one gls.insert.
  EXPECT_EQ(leaf_subnodes[0]->stats().insert_requests, batches_before + 1);
  EXPECT_EQ(leaf_subnodes[0]->stats().inserts, inserts_before + 4);

  // And every object resolves to exactly its new address.
  for (const auto& oid : oids) {
    auto client = deployment_.MakeClient(world_.hosts[7]);
    std::vector<gls::ContactAddress> addresses;
    client->Lookup(oid, [&](Result<gls::LookupResult> r) {
      ASSERT_TRUE(r.ok()) << r.status();
      addresses = r->addresses;
    });
    simulator_.Run();
    ASSERT_EQ(addresses.size(), 1u);
    EXPECT_EQ(addresses[0], *gos_a_->FindReplica(oid)->contact_address());
  }
}

TEST_F(GosTest, DecommissionRemovesAllReplicasInOneDeleteBatch) {
  std::vector<gls::ObjectId> oids;
  for (int i = 0; i < 4; ++i) {
    oids.push_back(CreateFirstSync(gos_a_.get(), dso::kProtoClientServer));
  }

  auto leaf_subnodes =
      deployment_.SubnodesOf(world_.topology.NodeDomain(world_.hosts[0]));
  ASSERT_EQ(leaf_subnodes.size(), 1u);
  uint64_t batches_before = leaf_subnodes[0]->stats().delete_requests;
  uint64_t deletes_before = leaf_subnodes[0]->stats().deletes;

  Status status = InvalidArgument("pending");
  gos_a_->Decommission([&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(gos_a_->num_replicas(), 0u);
  EXPECT_EQ(gos_a_->stats().replicas_removed, 4u);

  // All four deregistrations went to the leaf directory in one gls.delete.
  EXPECT_EQ(leaf_subnodes[0]->stats().delete_requests, batches_before + 1);
  EXPECT_EQ(leaf_subnodes[0]->stats().deletes, deletes_before + 4);

  // The objects are gone from the GLS worldwide.
  for (const auto& oid : oids) {
    auto client = deployment_.MakeClient(world_.hosts[7]);
    Status lookup_status = OkStatus();
    client->Lookup(oid, [&](Result<gls::LookupResult> r) { lookup_status = r.status(); });
    simulator_.Run();
    EXPECT_EQ(lookup_status.code(), StatusCode::kNotFound) << oid.ToHex();
  }
}

TEST_F(GosTest, DecommissionOfEmptyServerIsOk) {
  Status status = InvalidArgument("pending");
  gos_b_->Decommission([&](Status s) { status = s; });
  simulator_.Run();
  EXPECT_TRUE(status.ok()) << status;
}

TEST_F(GosTest, RestoreRejectsCorruptCheckpoint) {
  Status status = OkStatus();
  gos_a_->Restore(Bytes{0xff, 0xff, 0x03}, [&](Status s) { status = s; });
  simulator_.Run();
  EXPECT_FALSE(status.ok());
}

TEST_F(GosTest, RpcCommandsWork) {
  // Drive the server through its RPC surface, as the moderator tool does.
  sim::Channel rpc(&transport_, world_.hosts[3]);
  gls::ObjectId oid;
  bool ok = false;
  rpc.Call(gos_a_->endpoint(), "gos.create_first_replica",
           wire::Encode(gos::CreateFirstReplicaRequest{dso::kProtoClientServer,
                                                       KvObject::kTypeId, {}}),
           [&](Result<sim::PayloadView> result) {
             ASSERT_TRUE(result.ok()) << result.status();
             ByteReader r(*result);
             oid = *wire::Read<gls::ObjectId>(&r);
             ok = true;
           });
  simulator_.Run();
  ASSERT_TRUE(ok);
  EXPECT_EQ(gos_a_->num_replicas(), 1u);

  // list_replicas sees it.
  size_t listed = 0;
  rpc.Call(gos_a_->endpoint(), "gos.list_replicas", {}, [&](Result<sim::PayloadView> result) {
    ASSERT_TRUE(result.ok());
    ByteReader r(*result);
    listed = static_cast<size_t>(*r.ReadVarint());
  });
  simulator_.Run();
  EXPECT_EQ(listed, 1u);

  // remove via RPC.
  ByteWriter rm;
  wire::Put(&rm, oid);
  Status remove_status = InvalidArgument("pending");
  rpc.Call(gos_a_->endpoint(), "gos.remove_replica", rm.Take(),
           [&](Result<sim::PayloadView> result) {
    remove_status = result.ok() ? OkStatus() : result.status();
  });
  simulator_.Run();
  EXPECT_TRUE(remove_status.ok()) << remove_status;
  EXPECT_EQ(gos_a_->num_replicas(), 0u);
}

TEST_F(GosTest, SwitchProtocolPreservesStateAndFencesEpoch) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoMasterSlave);
  auto* master = gos_a_->FindReplica(oid);
  ASSERT_TRUE(InvokeSync(master, KvPut("emacs", "20.7")).ok());
  ASSERT_TRUE(InvokeSync(master, KvPut("vim", "5.6")).ok());
  uint64_t version_before = master->version();
  uint64_t epoch_before = master->epoch();
  gls::ContactAddress old_address = *master->contact_address();

  Status status = InvalidArgument("pending");
  gos_a_->SwitchProtocol(oid, dso::kProtoCacheInval, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(gos_a_->ProtocolOf(oid), dso::kProtoCacheInval);
  EXPECT_EQ(gos_a_->stats().protocol_switches, 1u);

  // Same state and version, one epoch up: stragglers fenced on the old epoch
  // cannot land on the new incarnation.
  auto* fresh = gos_a_->FindReplica(oid);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->version(), version_before);
  EXPECT_EQ(fresh->epoch(), epoch_before + 1);
  auto read = InvokeSync(fresh, KvGet("emacs"));
  ASSERT_TRUE(read.ok()) << read.status();
  ByteReader r(*read);
  EXPECT_EQ(r.ReadString().value(), "20.7");

  // The GLS now advertises exactly the new incarnation's address.
  auto client = deployment_.MakeClient(world_.hosts[7]);
  std::vector<gls::ContactAddress> addresses;
  client->Lookup(oid, [&](Result<gls::LookupResult> r2) {
    ASSERT_TRUE(r2.ok()) << r2.status();
    addresses = r2->addresses;
  });
  simulator_.Run();
  ASSERT_EQ(addresses.size(), 1u);
  EXPECT_EQ(addresses[0], *fresh->contact_address());
  EXPECT_EQ(addresses[0].protocol, dso::kProtoCacheInval);
  EXPECT_NE(addresses[0].endpoint, old_address.endpoint);
}

TEST_F(GosTest, SwitchProtocolTombstonesTheRetiredEndpoint) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoClientServer);
  gls::ContactAddress old_address = *gos_a_->FindReplica(oid)->contact_address();

  Status status = InvalidArgument("pending");
  gos_a_->SwitchProtocol(oid, dso::kProtoMasterSlave, [&](Status s) { status = s; });
  simulator_.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(gos_a_->stats().tombstones, 1u);

  // A client still bound to the retired endpoint fails immediately (and with
  // a rebind-worthy error), instead of waiting out the 30 s call deadline.
  sim::Channel stale(&transport_, world_.hosts[7]);
  Status call_status = OkStatus();
  stale.Call(old_address.endpoint, "dso.get_state", {},
             [&](Result<sim::PayloadView> result) { call_status = result.status(); });
  sim::SimTime before = simulator_.Now();
  simulator_.Run();
  EXPECT_EQ(call_status.code(), StatusCode::kFailedPrecondition) << call_status;
  EXPECT_LT(simulator_.Now() - before, sim::kSecond);

  // A stale thin proxy's read, too: NotFound would end a download with a 404
  // where FailedPrecondition makes the HTTPD rebind.
  Status read_status = OkStatus();
  dso::kDsoReader.Call(&stale, old_address.endpoint, KvGet("apache"),
                       [&](Result<Bytes> result) { read_status = result.status(); });
  before = simulator_.Now();
  simulator_.Run();
  EXPECT_EQ(read_status.code(), StatusCode::kFailedPrecondition) << read_status;
  EXPECT_LT(simulator_.Now() - before, sim::kSecond);
}

TEST_F(GosTest, SwitchProtocolGuardsRolesAndNoOps) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoMasterSlave);
  ASSERT_TRUE(CreateReplicaSync(gos_b_.get(), oid, gls::ReplicaRole::kSlave).ok());

  // Same protocol: a no-op success, not a rebuild.
  Status same = InvalidArgument("pending");
  gos_a_->SwitchProtocol(oid, dso::kProtoMasterSlave, [&](Status s) { same = s; });
  simulator_.Run();
  EXPECT_TRUE(same.ok());
  EXPECT_EQ(gos_a_->stats().protocol_switches, 0u);

  // Only the master may switch.
  Status at_slave = OkStatus();
  gos_b_->SwitchProtocol(oid, dso::kProtoCacheInval, [&](Status s) { at_slave = s; });
  simulator_.Run();
  EXPECT_EQ(at_slave.code(), StatusCode::kFailedPrecondition);

  // Unknown objects are reported as such.
  Rng rng(11);
  Status unknown = OkStatus();
  gos_a_->SwitchProtocol(gls::ObjectId::Generate(&rng), dso::kProtoCacheInval,
                         [&](Status s) { unknown = s; });
  simulator_.Run();
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
}

TEST_F(GosTest, AccessTelemetryFollowsReplicasAcrossRestore) {
  gls::ObjectId oid = CreateFirstSync(gos_a_.get(), dso::kProtoClientServer);
  auto* replica = gos_a_->FindReplica(oid);
  ASSERT_TRUE(InvokeSync(replica, KvPut("apache", "1.3.12")).ok());
  ASSERT_TRUE(InvokeSync(replica, KvGet("apache")).ok());
  ASSERT_TRUE(InvokeSync(replica, KvGet("apache")).ok());

  const ctl::AccessStats* stats = gos_a_->metrics()->Find(oid);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->total_writes(), 1u);
  EXPECT_EQ(stats->total_reads(), 2u);
  EXPECT_GT(stats->MeanReadBytes(), 0.0);

  // The telemetry rides the checkpoint: a restored server resumes with warm
  // rate estimates instead of re-learning the object from zero.
  Bytes checkpoint = gos_a_->Checkpoint();
  network_.SetNodeUp(world_.hosts[0], false);
  gos_a_.reset();
  network_.SetNodeUp(world_.hosts[0], true);
  gos_a_ = std::make_unique<ObjectServer>(&transport_, world_.hosts[0], &repository_,
                                          deployment_.LeafDirectoryFor(world_.hosts[0]),
                                          nullptr);
  Status restore_status = InvalidArgument("pending");
  gos_a_->Restore(checkpoint, [&](Status s) { restore_status = s; });
  simulator_.Run();
  ASSERT_TRUE(restore_status.ok()) << restore_status;

  const ctl::AccessStats* restored = gos_a_->metrics()->Find(oid);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->total_writes(), 1u);
  EXPECT_EQ(restored->total_reads(), 2u);

  // And the hook is re-installed: new traffic keeps counting.
  ASSERT_TRUE(InvokeSync(gos_a_->FindReplica(oid), KvGet("apache")).ok());
  EXPECT_EQ(gos_a_->metrics()->Find(oid)->total_reads(), 3u);
}

TEST(GosAuthTest, OnlyModeratorsMayCommand) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sec::KeyRegistry registry;
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport plain(&network);
  sec::SecureTransport secure(&plain, &registry);
  dso::ImplementationRepository repository;
  repository.RegisterSemantics(std::make_unique<KvObject>());
  gls::GlsDeployment deployment(&secure, &world.topology, &registry);

  NodeId gos_node = world.hosts[0];
  NodeId moderator_node = world.hosts[2];
  NodeId user_node = world.hosts[3];
  secure.SetNodeCredential(gos_node, registry.Register("gos", sec::Role::kGdnHost));
  secure.SetNodeCredential(moderator_node,
                           registry.Register("moderator", sec::Role::kModerator));
  secure.SetNodeCredential(user_node, registry.Register("user", sec::Role::kUser));
  secure.SetChannelPolicy([&](NodeId src, NodeId dst) {
    sec::ChannelConfig config;
    if (dst == gos_node && (src == moderator_node || src == user_node)) {
      config.auth = sec::AuthMode::kMutualAuth;
    }
    return config;
  });

  GosOptions options;
  options.enforce_authorization = true;
  ObjectServer gos(&secure, gos_node, &repository, deployment.LeafDirectoryFor(gos_node),
                   &registry, options);

  Bytes request = wire::Encode(
      CreateFirstReplicaRequest{dso::kProtoClientServer, KvObject::kTypeId, {}});

  // User's command is refused; moderator's succeeds.
  sim::Channel user_rpc(&secure, user_node);
  Status user_status = OkStatus();
  user_rpc.Call(gos.endpoint(), "gos.create_first_replica", request,
                [&](Result<sim::PayloadView> result) { user_status = result.status(); });
  simulator.Run();
  EXPECT_EQ(user_status.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(gos.stats().commands_denied, 1u);
  EXPECT_EQ(gos.num_replicas(), 0u);

  sim::Channel moderator_rpc(&secure, moderator_node);
  Status moderator_status = InvalidArgument("pending");
  moderator_rpc.Call(gos.endpoint(), "gos.create_first_replica", request,
                     [&](Result<sim::PayloadView> result) {
                       moderator_status = result.ok() ? OkStatus() : result.status();
                     });
  simulator.Run();
  EXPECT_TRUE(moderator_status.ok()) << moderator_status;
  EXPECT_EQ(gos.num_replicas(), 1u);
}

// PR 8 migration hole, closed: a protocol switch must also tear down replicas
// the GOS never created — the HTTPD-side representatives installed via
// bind_as_replica. Before the fix, such a replica kept serving the retired
// incarnation indefinitely and its GLS registration leaked when the HTTPD
// eventually dropped the binding.
TEST(GosMigrationTest, SwitchProtocolRetiresHttpdSideReplicas) {
  gdn::GdnWorldConfig config;
  config.fanouts = {2, 2};
  config.user_hosts_per_site = 2;
  gdn::GdnWorld world(config);

  std::map<std::string, Bytes> files = {{"VERSION", ToBytes("1.0")}};
  auto oid = world.PublishPackage("/apps/live", files, dso::kProtoMasterSlave, 0);
  ASSERT_TRUE(oid.ok()) << oid.status();

  // A user far from the master downloads through their HTTPD; with
  // bind_as_replica the HTTPD joins as a slave and registers in the GLS.
  sim::NodeId user = world.user_hosts().back();
  gdn::GdnHttpd* httpd = world.NearestHttpd(user);
  ASSERT_NE(world.services().CountryOf(user), 0);
  auto v1 = world.DownloadFile(user, "/apps/live", "VERSION");
  ASSERT_TRUE(v1.ok()) << v1.status();
  EXPECT_EQ(ToString(*v1), "1.0");
  EXPECT_EQ(httpd->bound_objects(), 1u);

  // The nearest advertised address from the user's country is now the
  // HTTPD-side replica itself (GLS lookups stop at the closest registration).
  auto client = world.services().gls().MakeClient(user);
  std::vector<gls::ContactAddress> before;
  client->Lookup(*oid, [&](Result<gls::LookupResult> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    before = r->addresses;
  });
  world.Run();
  ASSERT_EQ(before.size(), 1u);
  EXPECT_EQ(before[0].endpoint.node, httpd->node());
  EXPECT_NE(before[0].role, gls::ReplicaRole::kMaster);

  // The master's GOS switches protocols. The epoch bump must reach the
  // HTTPD-side replica too: the retire fan-out fences it.
  ObjectServer* gos = world.services().GosOf(0);
  Status status = InvalidArgument("pending");
  gos->SwitchProtocol(*oid, dso::kProtoCacheInval, [&](Status s) { status = s; });
  world.Run();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(gos->stats().protocol_switches, 1u);
  EXPECT_GE(gos->stats().foreign_retires, 1u);

  // A write lands on the fresh incarnation.
  auto* fresh = gos->FindReplica(*oid);
  ASSERT_NE(fresh, nullptr);
  Result<Bytes> wrote = Unavailable("pending");
  fresh->Invoke(gdn::pkg::kAddFile.Marshal({"VERSION", ToBytes("2.0")}),
                [&](Result<Bytes> r) { wrote = std::move(r); });
  world.Run();
  ASSERT_TRUE(wrote.ok()) << wrote.status();

  // Re-download through the same HTTPD: its fenced replica refuses with a
  // rebind-worthy error, the stale binding is dropped through Unbind, and the
  // rebound proxy serves the update.
  auto v2 = world.DownloadFile(user, "/apps/live", "VERSION");
  ASSERT_TRUE(v2.ok()) << v2.status();
  EXPECT_EQ(ToString(*v2), "2.0");
  EXPECT_GE(httpd->stats().rebinds, 1u);

  // And the retired HTTPD-side address is gone from the GLS — the binding was
  // unbound, not silently destroyed with its registration left behind.
  std::vector<gls::ContactAddress> after;
  client->Lookup(*oid, [&](Result<gls::LookupResult> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    after = r->addresses;
  });
  world.Run();
  for (const gls::ContactAddress& stale : before) {
    for (const gls::ContactAddress& address : after) {
      EXPECT_NE(address.endpoint, stale.endpoint)
          << "retired incarnation still advertised";
    }
  }
}

}  // namespace
}  // namespace globe::gos
