// Robustness / fuzz tests for the availability requirement (paper §6.1): "People
// should not be able to crash our critical servers, nor render them inoperable using
// bogus protocol messages. The critical servers in the GDN are: Location Service
// directory nodes ..., Object Servers, GDN-enabled HTTPDs, DNS servers and auxiliary
// daemons."
//
// Strategy: build a full GdnWorld, blast every critical port with random garbage and
// structured-but-corrupt frames from user machines, then prove every service still
// answers legitimate requests correctly.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "src/gdn/world.h"

namespace globe::gdn {
namespace {

template <typename Param>
class RobustnessFixture : public ::testing::TestWithParam<Param> {
 protected:
  RobustnessFixture() {
    status_ = world_.PublishPackage("/apps/canary", {{"f", ToBytes("alive")}},
                                    dso::kProtoMasterSlave, 0, {1})
                  .ok()
                  ? OkStatus()
                  : InvalidArgument("publish failed");
  }

  // Targets: every well-known service port on every GDN host, plus the DSO replica
  // ports (which are ephemeral — sweep a band of them).
  std::vector<sim::Endpoint> CriticalEndpoints() {
    std::vector<sim::Endpoint> endpoints;
    for (size_t i = 0; i < world_.num_countries(); ++i) {
      endpoints.push_back({world_.services().GosOf(i)->host(), sim::kPortGos});
      endpoints.push_back({world_.services().GosOf(i)->host(), sim::kPortHttp});
      endpoints.push_back(world_.services().ResolverOf(i)->endpoint());
    }
    endpoints.push_back({world_.services().dns_primary()->node(), sim::kPortDns});
    endpoints.push_back({world_.services().naming_authority()->endpoint().node,
                         sim::kPortGnsAuthority});
    for (const auto& subnode : world_.services().gls().subnodes()) {
      endpoints.push_back(subnode->endpoint());
    }
    // A band of ephemeral ports where replica communication objects live.
    for (uint16_t port = sim::kPortClientBase; port < sim::kPortClientBase + 40; ++port) {
      endpoints.push_back({world_.services().GosOf(0)->host(), port});
    }
    return endpoints;
  }

  // Everything still works end to end.
  void VerifyWorldStillWorks() {
    auto content = world_.DownloadFile(world_.user_hosts().back(), "/apps/canary", "f");
    ASSERT_TRUE(content.ok()) << content.status();
    EXPECT_EQ(ToString(*content), "alive");

    Status update = Unavailable("pending");
    world_.moderator()->AddFile("/apps/canary", "f2", ToBytes("updated"),
                                [&](Status s) { update = s; });
    world_.Run();
    EXPECT_TRUE(update.ok()) << update;
  }

  GdnWorld world_;
  Status status_;
};

using RobustnessTest = RobustnessFixture<uint64_t>;

TEST_P(RobustnessTest, RandomGarbageToEveryCriticalPort) {
  ASSERT_TRUE(status_.ok());
  Rng rng(GetParam());
  auto endpoints = CriticalEndpoints();
  for (const auto& endpoint : endpoints) {
    for (int i = 0; i < 8; ++i) {
      sim::NodeId attacker =
          world_.user_hosts()[rng.UniformInt(world_.user_hosts().size())];
      Bytes garbage = rng.RandomBytes(rng.UniformInt(300));
      world_.network().Send({attacker, 9999}, endpoint, std::move(garbage));
    }
  }
  world_.Run();
  VerifyWorldStillWorks();
}

TEST_P(RobustnessTest, CorruptHttpRequests) {
  ASSERT_TRUE(status_.ok());
  Rng rng(GetParam() + 200);
  std::vector<std::string> nasties = {
      "",
      "GET",
      "GET / HTTP/1.0",                         // no header terminator
      "\r\n\r\n",
      "POST /packages/x HTTP/1.0\r\n\r\n",      // unsupported method
      "GET /packages/%zz HTTP/1.0\r\n\r\n",     // bad escape
      "GET /../../etc/passwd HTTP/1.0\r\n\r\n",
      std::string(100000, 'A'),
      "GET /search?q=%", // truncated escape in query
  };
  sim::NodeId httpd = world_.services().GosOf(0)->host();
  for (const auto& nasty : nasties) {
    world_.network().Send({world_.user_hosts()[1], 2345}, {httpd, sim::kPortHttp},
                          ToBytes(nasty));
  }
  // Random binary junk too.
  for (int i = 0; i < 20; ++i) {
    world_.network().Send({world_.user_hosts()[1], 2345}, {httpd, sim::kPortHttp},
                          rng.RandomBytes(rng.UniformInt(2000)));
  }
  world_.Run();
  VerifyWorldStillWorks();
}

// Batch counts arrive from outside: a count above the directory's cap, or one
// promising more items than the payload holds, is refused before any item is
// decoded or applied.
TEST_P(RobustnessTest, HostileBatchCountsAreRejected) {
  ASSERT_TRUE(status_.ok());
  Rng rng(GetParam() + 300);
  auto directory_state = [&] {
    std::vector<std::tuple<gls::ObjectId, std::vector<gls::ContactAddress>,
                           std::set<sim::DomainId>>>
        state;
    for (const auto& subnode : world_.services().gls().subnodes()) {
      for (const auto& [oid, entry] : subnode->ExportEntries()) {
        state.emplace_back(oid, entry.addresses, entry.pointers);
      }
    }
    return state;
  };
  const auto before = directory_state();

  const gls::DirectorySubnode& target = *world_.services().gls().subnodes().front();
  const gls::ContactAddress address{{world_.user_hosts()[0], 4242}, 1,
                                    gls::ReplicaRole::kMaster};
  // gls.insert / gls.delete and gls.install_ptr payloads promising `count`
  // items and holding `present`.
  auto address_batch = [&](uint64_t count, size_t present) {
    ByteWriter w;
    w.WriteVarint(count);
    for (size_t i = 0; i < present; ++i) {
      wire::Put(&w, gls::ObjectId::Generate(&rng));
      wire::Put(&w, address);
    }
    return w.Take();
  };
  auto pointer_batch = [&](uint64_t count, size_t present) {
    ByteWriter w;
    w.WriteU32(target.domain());
    w.WriteVarint(count);
    for (size_t i = 0; i < present; ++i) {
      wire::Put(&w, gls::ObjectId::Generate(&rng));
    }
    return w.Take();
  };
  constexpr uint64_t kAboveCap = 100001;  // the directory accepts 100000 items
  const std::vector<std::pair<const char*, Bytes>> calls = {
      {"gls.insert", address_batch(kAboveCap, kAboveCap)},
      {"gls.insert", address_batch(3, 2)},
      {"gls.delete", address_batch(kAboveCap, kAboveCap)},
      {"gls.delete", address_batch(3, 2)},
      {"gls.install_ptr", pointer_batch(kAboveCap, kAboveCap)},
      {"gls.install_ptr", pointer_batch(3, 2)},
  };
  sim::Channel channel(world_.transport(), world_.user_hosts()[0]);
  std::vector<Status> statuses(calls.size(), OkStatus());
  for (size_t i = 0; i < calls.size(); ++i) {
    channel.Call(
        target.endpoint(), calls[i].first, calls[i].second,
        [&statuses, i](Result<sim::PayloadView> r) { statuses[i] = r.status(); });
  }
  world_.Run();
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(statuses[i].code(), StatusCode::kInvalidArgument)
        << calls[i].first << " #" << i << ": " << statuses[i];
  }
  EXPECT_EQ(directory_state(), before);
  VerifyWorldStillWorks();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessTest, ::testing::Values(1, 2, 3));

// Every method a GLS directory subnode serves.
const char* const kGlsMethods[] = {
    "gls.lookup",
    "gls.lookup_all",
    "gls.insert",
    "gls.delete",
    "gls.install_ptr",
    "gls.remove_ptr",
    "gls.inval_cache",
    "gls.scrub_address",
    "gls.alloc_oid",
    "gls.claim_master",
    "gls.renew_lease",
};

// (seed, GLS method name).
using GlsFrameRobustnessTest = RobustnessFixture<std::tuple<uint64_t, const char*>>;

TEST_P(GlsFrameRobustnessTest, TruncatedRealFramesToEveryCriticalPort) {
  ASSERT_TRUE(status_.ok());
  const auto& [seed, method] = GetParam();
  Rng rng(seed + 100);
  const Bytes payload = rng.RandomBytes(24);

  // A plausible RPC request frame for `method`.
  auto frame = [&](uint64_t call_id, ByteSpan body) {
    ByteWriter w;
    w.WriteU8(0);         // request
    w.WriteU64(call_id);  // request id
    w.WriteU64(call_id);  // call id
    w.WriteString(method);
    w.WriteLengthPrefixed(body);
    return w.Take();
  };
  // Each endpoint gets the frame cut at a random length, and a whole frame whose
  // payload is cut at a random length, which reaches the method's own decoder.
  const Bytes whole = frame(42, payload);
  for (const auto& endpoint : CriticalEndpoints()) {
    Bytes truncated(whole.begin(), whole.begin() + rng.UniformInt(whole.size()));
    world_.network().Send({world_.user_hosts()[0], 1234}, endpoint, std::move(truncated));
    size_t cut = rng.UniformInt(payload.size());
    world_.network().Send({world_.user_hosts()[0], 1234}, endpoint,
                          frame(43, ByteSpan(payload.data(), cut)));
  }
  world_.Run();
  VerifyWorldStillWorks();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlsFrameRobustnessTest,
                         ::testing::Combine(::testing::Values<uint64_t>(1, 2, 3),
                                            ::testing::ValuesIn(kGlsMethods)));

// Secured world under the same abuse: the secure transport must additionally count
// (not crash on) malformed frames.
TEST(SecureRobustnessTest, GarbageAgainstSecuredWorld) {
  GdnWorldConfig config;
  config.fanouts = {2, 2};
  config.secure = true;
  GdnWorld world(config);
  ASSERT_TRUE(world
                  .PublishPackage("/apps/canary", {{"f", ToBytes("alive")}},
                                  dso::kProtoMasterSlave, 0)
                  .ok());

  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    sim::NodeId target = world.services().GosOf(i % world.num_countries())->host();
    uint16_t port = (i % 2 == 0) ? sim::kPortGos : sim::kPortHttp;
    world.network().Send({world.user_hosts()[0], 999}, {target, port},
                         rng.RandomBytes(rng.UniformInt(200)));
  }
  world.Run();

  auto content = world.DownloadFile(world.user_hosts()[2], "/apps/canary", "f");
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(ToString(*content), "alive");
  EXPECT_GT(world.secure_transport()->stats().malformed_frames, 0u);
}

// Directory-node crash mid-operation: inserts during the outage fail cleanly and
// succeed after recovery.
TEST(FailureRecoveryTest, GlsNodeCrashDuringInserts) {
  GdnWorld world;
  ASSERT_TRUE(world
                  .PublishPackage("/apps/base", {{"f", ToBytes("v")}},
                                  dso::kProtoMasterSlave, 0)
                  .ok());

  // Crash the leaf directory node serving country 1's GOS.
  sim::NodeId gos_host = world.services().GosOf(1)->host();
  sim::DomainId leaf_domain = world.topology().NodeDomain(gos_host);
  auto subnodes = world.services().gls().SubnodesOf(leaf_domain);
  ASSERT_FALSE(subnodes.empty());
  sim::NodeId directory_host = subnodes[0]->host();
  Bytes checkpoint = subnodes[0]->SaveState();
  world.network().SetNodeUp(directory_host, false);

  // Creating a replica in country 1 now fails (its GLS leaf is down).
  Status create_status = OkStatus();
  world.services().GosOf(1)->CreateFirstReplica(
      dso::kProtoMasterSlave, kPackageTypeId,
      [&](Result<std::pair<gls::ObjectId, gls::ContactAddress>> r) {
        create_status = r.ok() ? OkStatus() : r.status();
      });
  world.Run();
  EXPECT_FALSE(create_status.ok());

  // Recover the directory node; the same command now succeeds.
  world.network().SetNodeUp(directory_host, true);
  ASSERT_TRUE(const_cast<gls::DirectorySubnode*>(subnodes[0])->RestoreState(checkpoint).ok());
  create_status = Unavailable("pending");
  world.services().GosOf(1)->CreateFirstReplica(
      dso::kProtoMasterSlave, kPackageTypeId,
      [&](Result<std::pair<gls::ObjectId, gls::ContactAddress>> r) {
        create_status = r.ok() ? OkStatus() : r.status();
      });
  world.Run();
  EXPECT_TRUE(create_status.ok()) << create_status;
}

}  // namespace
}  // namespace globe::gdn
