// Tests for the GDN application layer: the package DSO, the moderator tool, the
// GDN-HTTPD with its HTML/file serving and replica binding, and the GdnWorld harness.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "src/dso/client_server.h"
#include "src/dso/wire.h"
#include "src/gdn/package.h"
#include "src/gdn/search.h"
#include "src/gdn/services.h"
#include "src/gdn/world.h"
#include "src/sim/backend.h"
#include "src/util/sha256.h"

namespace globe::gdn {
namespace {

// ---------------------------------------------------------------- PackageObject

class PackageObjectTest : public ::testing::Test {
 protected:
  Result<Bytes> Invoke(const dso::Invocation& invocation) {
    return package_.Invoke(invocation);
  }
  PackageObject package_;
};

TEST_F(PackageObjectTest, AddListGetRemove) {
  Bytes content = ToBytes("#!/bin/sh\necho gimp\n");
  ASSERT_TRUE(Invoke(pkg::kAddFile.Marshal({"bin/gimp", content})).ok());
  EXPECT_EQ(package_.num_files(), 1u);

  auto listing = pkg::kListContents.Unmarshal(Invoke(pkg::kListContents.Marshal({})));
  ASSERT_TRUE(listing.ok());
  ASSERT_EQ(listing->files.size(), 1u);
  EXPECT_EQ(listing->files[0].path, "bin/gimp");
  EXPECT_EQ(listing->files[0].size, content.size());
  EXPECT_EQ(listing->files[0].sha256_hex, Sha256::HexDigest(content));

  auto info =
      pkg::kGetFileInfo.Unmarshal(Invoke(pkg::kGetFileInfo.Marshal({"bin/gimp"})));
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(*info, listing->files[0]);

  auto fetched = Invoke(pkg::kGetFileContents.Marshal({"bin/gimp"}));
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, content);

  ASSERT_TRUE(Invoke(pkg::kRemoveFile.Marshal({"bin/gimp"})).ok());
  EXPECT_EQ(package_.num_files(), 0u);
  EXPECT_FALSE(Invoke(pkg::kGetFileContents.Marshal({"bin/gimp"})).ok());
}

TEST_F(PackageObjectTest, AddFileOverwrites) {
  ASSERT_TRUE(Invoke(pkg::kAddFile.Marshal({"README", ToBytes("v1")})).ok());
  ASSERT_TRUE(Invoke(pkg::kAddFile.Marshal({"README", ToBytes("v2-longer")})).ok());
  EXPECT_EQ(package_.num_files(), 1u);
  auto fetched = Invoke(pkg::kGetFileContents.Marshal({"README"}));
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(ToString(*fetched), "v2-longer");
}

TEST_F(PackageObjectTest, EmptyPathRejected) {
  EXPECT_FALSE(Invoke(pkg::kAddFile.Marshal({"", ToBytes("x")})).ok());
}

TEST_F(PackageObjectTest, RemoveMissingFileFails) {
  auto result = Invoke(pkg::kRemoveFile.Marshal({"nope"}));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(PackageObjectTest, DescriptionRoundTrip) {
  ASSERT_TRUE(
      Invoke(pkg::kSetDescription.Marshal({"GNU Image Manipulation Program"})).ok());
  auto description =
      pkg::kGetDescription.Unmarshal(Invoke(pkg::kGetDescription.Marshal({})));
  ASSERT_TRUE(description.ok());
  EXPECT_EQ(description->text, "GNU Image Manipulation Program");
}

TEST_F(PackageObjectTest, UnknownMethodFails) {
  dso::Invocation bogus{"pkg.format_disk", {}, false};
  EXPECT_FALSE(Invoke(bogus).ok());
}

TEST_F(PackageObjectTest, StateRoundTrip) {
  ASSERT_TRUE(Invoke(pkg::kAddFile.Marshal({"a", ToBytes("alpha")})).ok());
  ASSERT_TRUE(Invoke(pkg::kAddFile.Marshal({"b", ToBytes("beta")})).ok());
  ASSERT_TRUE(Invoke(pkg::kSetDescription.Marshal({"two files"})).ok());

  PackageObject restored;
  ASSERT_TRUE(restored.SetState(package_.GetState()).ok());
  EXPECT_EQ(restored.num_files(), 2u);
  EXPECT_EQ(restored.total_bytes(), package_.total_bytes());
  auto fetched = restored.Invoke(pkg::kGetFileContents.Marshal({"b"}));
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(ToString(*fetched), "beta");
}

TEST_F(PackageObjectTest, TamperedStateIsRejected) {
  ASSERT_TRUE(Invoke(pkg::kAddFile.Marshal({"binary", ToBytes("legit content")})).ok());
  Bytes state = package_.GetState();
  // Flip a byte inside the file content region; the per-file digest must catch it.
  auto needle = ToBytes("legit");
  auto it = std::search(state.begin(), state.end(), needle.begin(), needle.end());
  ASSERT_NE(it, state.end());
  *it ^= 0x01;
  PackageObject restored;
  Status status = restored.SetState(state);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(PackageObjectTest, CloneEmptyIsEmpty) {
  ASSERT_TRUE(Invoke(pkg::kAddFile.Marshal({"a", ToBytes("x")})).ok());
  auto clone = package_.CloneEmpty();
  EXPECT_EQ(clone->type_id(), kPackageTypeId);
  auto listing =
      pkg::kListContents.Unmarshal(clone->Invoke(pkg::kListContents.Marshal({})));
  ASSERT_TRUE(listing.ok());
  EXPECT_TRUE(listing->files.empty());
}

// Replicas route by IsReadOnly, so it must name exactly the read methods: a
// write it called a read would skip the write guard, and a read it called a
// write would be forwarded to the master and deduped there. Callers' flags come
// from the same declarations, so they cannot disagree.
TEST(ReadOnlyClassificationTest, TrueForExactlyTheReadMethods) {
  struct Row {
    const dso::SemanticsObject* object;
    std::string_view method;
    bool read;
  };
  PackageObject package;
  SearchIndexObject index;
  const Row rows[] = {
      {&package, "pkg.addFile", false},       {&package, "pkg.removeFile", false},
      {&package, "pkg.setDescription", false}, {&package, "pkg.listContents", true},
      {&package, "pkg.getFileContents", true}, {&package, "pkg.getFileInfo", true},
      {&package, "pkg.getDescription", true},  {&package, "pkg.format_disk", false},
      {&package, "idx.search", false},         {&package, "", false},
      {&index, "idx.register", false},         {&index, "idx.unregister", false},
      {&index, "idx.search", true},            {&index, "idx.size", false},
      {&index, "pkg.listContents", false},     {&index, "idx.drop", false},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(row.object->IsReadOnly(row.method), row.read) << row.method;
  }
}

// ---------------------------------------------------------------- Hostile replicas

// A replica's answer is peer input. A pkg.listContents or idx.search result of
// six bytes claiming 2^40 entries is refused with InvalidArgument; it is never
// allocated for.
const Bytes kTwoToTheFortyItems = {0x80, 0x80, 0x80, 0x80, 0x80, 0x20};

void AnswerEveryReadWith(sim::RpcServer* server, Bytes answer) {
  dso::kDsoReader.Register(
      server, [answer](const sim::RpcContext&, const dso::Invocation&) -> Result<Bytes> {
        return answer;
      });
}

TEST(HostileReplicaTest, ResultCountBeyondThePayloadIsRefused) {
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  sim::RpcServer replica(&transport, world.hosts[0], 700);
  AnswerEveryReadWith(&replica, kTwoToTheFortyItems);
  dso::BoundObject bound;
  bound.replication = std::make_unique<dso::RemoteProxy>(
      &transport, world.hosts[1],
      gls::ContactAddress{replica.endpoint(), dso::kProtoClientServer,
                          gls::ReplicaRole::kMaster});
  bound.control = std::make_unique<dso::ControlObject>(bound.replication.get());

  Status listing = OkStatus();
  bound.Call(pkg::kListContents, {},
             [&](Result<pkg::Listing> r) { listing = r.status(); });
  Status matches = OkStatus();
  bound.Call(search::kSearch, {"gimp"},
             [&](Result<search::Matches> r) { matches = r.status(); });
  simulator.Run();
  EXPECT_EQ(listing.code(), StatusCode::kInvalidArgument) << listing;
  EXPECT_EQ(matches.code(), StatusCode::kInvalidArgument) << matches;
}

// The same answer reaching a GDN-HTTPD through its thin proxy: the listing is
// a 502, and the HTTPD serves its next request.
TEST(HostileReplicaTest, HttpdAnswers502AndServesOn) {
  GdnWorldConfig config;
  config.httpd.bind_as_replica = false;
  GdnWorld world(config);
  ASSERT_TRUE(world.PublishPackage("/apps/honest", {{"README", ToBytes("hello")}},
                                   dso::kProtoClientServer, 0)
                  .ok());
  auto hostile = world.PublishPackage("/apps/hostile", {{"README", ToBytes("x")}},
                                      dso::kProtoClientServer, world.num_countries() - 1);
  ASSERT_TRUE(hostile.ok()) << hostile.status();

  // A replica next to the user's HTTPD, registered in the GLS: the HTTPD's
  // bind finds it first.
  sim::NodeId user = world.user_hosts()[0];
  GdnHttpd* httpd = world.NearestHttpd(user);
  sim::RpcServer replica(world.transport(), httpd->node(), 7000);
  AnswerEveryReadWith(&replica, kTwoToTheFortyItems);
  Status registered = Unavailable("pending");
  auto gls = world.services().gls().MakeClient(httpd->node());
  gls->Insert(*hostile,
              {replica.endpoint(), dso::kProtoClientServer, gls::ReplicaRole::kMaster},
              [&](Status s) { registered = s; });
  world.Run();
  ASSERT_TRUE(registered.ok()) << registered;

  auto browser = world.MakeBrowser(user);
  auto fetch = [&](const std::string& target) {
    Result<http::HttpResponse> response = Unavailable("pending");
    browser->Fetch(httpd->node(), target,
                   [&](Result<http::HttpResponse> r) { response = std::move(r); });
    world.Run();
    return response;
  };
  auto refused = fetch("/packages/apps/hostile");
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->status_code, 502);
  EXPECT_EQ(httpd->stats().rebinds, 1u);  // the refusal was retried on a fresh bind
  auto next = fetch("/packages/apps/honest");
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->status_code, 200);
  EXPECT_NE(ToString(next->body).find("README"), std::string::npos);
}

// ---------------------------------------------------------------- GdnWorld end-to-end

class GdnWorldTest : public ::testing::Test {
 protected:
  GdnWorldTest() : world_(MakeConfig()) {}

  static GdnWorldConfig MakeConfig() {
    GdnWorldConfig config;
    config.fanouts = {2, 2, 2};  // 2 continents x 2 countries x 2 sites
    config.user_hosts_per_site = 2;
    return config;
  }

  GdnWorld world_;
};

TEST_F(GdnWorldTest, WorldWiring) {
  EXPECT_EQ(world_.num_countries(), 4u);
  EXPECT_EQ(world_.user_hosts().size(), 16u);
  for (size_t i = 0; i < world_.num_countries(); ++i) {
    EXPECT_NE(world_.services().GosOf(i), nullptr);
    EXPECT_NE(world_.services().HttpdOf(i), nullptr);
  }
  // Every user maps to a country and an HTTPD.
  for (sim::NodeId user : world_.user_hosts()) {
    EXPECT_GE(world_.services().CountryOf(user), 0);
    EXPECT_NE(world_.NearestHttpd(user), nullptr);
  }
}

// A NodeId read off the wire (a socket frame header names its source) need not
// be a node of the topology: it is in no country, and country 0 serves it.
TEST_F(GdnWorldTest, NodeOutsideTheTopologyHasNoCountry) {
  GdnServices& services = world_.services();
  sim::NodeId user = world_.user_hosts().back();
  size_t country = static_cast<size_t>(services.CountryOf(user));
  ASSERT_NE(country, 0u);
  EXPECT_EQ(services.NearestHttpd(user), services.HttpdOf(country));
  EXPECT_EQ(services.ResolverFor(user), services.ResolverOf(country));

  auto stranger = static_cast<sim::NodeId>(world_.topology().num_nodes() + 5);
  EXPECT_EQ(services.CountryOf(stranger), -1);
  EXPECT_EQ(services.NearestHttpd(stranger), services.HttpdOf(0));
  EXPECT_EQ(services.ResolverFor(stranger), services.ResolverOf(0));
}

TEST_F(GdnWorldTest, PublishAndDownloadEndToEnd) {
  std::map<std::string, Bytes> files = {
      {"bin/gimp", ToBytes("ELF executable bytes")},
      {"README", ToBytes("The GNU Image Manipulation Program")},
  };
  auto oid = world_.PublishPackage("/apps/graphics/Gimp", files, dso::kProtoMasterSlave,
                                   /*master_country=*/0, /*replica_countries=*/{2});
  ASSERT_TRUE(oid.ok()) << oid.status();

  // A user on the other continent downloads through their local HTTPD.
  sim::NodeId user = world_.user_hosts().back();
  auto content = world_.DownloadFile(user, "/apps/graphics/Gimp", "README");
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(ToString(*content), "The GNU Image Manipulation Program");
}

// Same world with the GLS lookup cache enabled: the HTTPDs issue cache-permitted
// lookups, downloads stay correct, and the directory subnodes see cache traffic.
class CachedGdnWorldTest : public ::testing::Test {
 protected:
  CachedGdnWorldTest() : world_(MakeConfig()) {}

  static GdnWorldConfig MakeConfig() {
    GdnWorldConfig config;
    config.fanouts = {2, 2, 2};
    config.user_hosts_per_site = 2;
    config.gls_cache = true;
    config.gls_cache_ttl = 3600 * sim::kSecond;
    return config;
  }

  GdnWorld world_;
};

TEST_F(CachedGdnWorldTest, CachedLookupsServeDownloadsEndToEnd) {
  std::map<std::string, Bytes> files = {{"pkg.tar", ToBytes("payload bytes")}};
  auto oid = world_.PublishPackage("/apps/misc/pkg", files, dso::kProtoMasterSlave,
                                   /*master_country=*/0);
  ASSERT_TRUE(oid.ok()) << oid.status();

  // Users in the two continent-1 countries download through their local HTTPDs:
  // both binds are cross-continent cached lookups.
  auto first = world_.DownloadFile(world_.user_hosts()[8], "/apps/misc/pkg", "pkg.tar");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(ToString(*first), "payload bytes");
  auto second = world_.DownloadFile(world_.user_hosts()[12], "/apps/misc/pkg", "pkg.tar");
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(ToString(*second), "payload bytes");

  // The cached read path really ran: allow_cached lookups consulted the caches,
  // and the descents left entries behind on the replica-side pointer holders.
  gls::SubnodeStats stats = world_.services().gls().TotalStats();
  EXPECT_GT(stats.cache_misses + stats.cache_hits, 0u);
  size_t cached_entries = 0;
  for (const auto& subnode : world_.services().gls().subnodes()) {
    cached_entries += subnode->CacheSize();
  }
  EXPECT_GT(cached_entries, 0u);
}

TEST_F(GdnWorldTest, ListingIsHtmlWithHashes) {
  std::map<std::string, Bytes> files = {{"tetex.tar", ToBytes("tar bytes here")}};
  ASSERT_TRUE(world_.PublishPackage("/apps/text/teTeX", files, dso::kProtoMasterSlave, 1)
                  .ok());

  auto listing = world_.FetchListing(world_.user_hosts()[0], "/apps/text/teTeX");
  ASSERT_TRUE(listing.ok()) << listing.status();
  EXPECT_NE(listing->find("<html>"), std::string::npos);
  EXPECT_NE(listing->find("tetex.tar"), std::string::npos);
  EXPECT_NE(listing->find(Sha256::HexDigest(ToBytes("tar bytes here"))),
            std::string::npos);
}

TEST_F(GdnWorldTest, DownloadUnknownPackageIs404) {
  auto content = world_.DownloadFile(world_.user_hosts()[0], "/apps/never/was", "x");
  EXPECT_FALSE(content.ok());
}

TEST_F(GdnWorldTest, DownloadUnknownFileIs404) {
  std::map<std::string, Bytes> files = {{"real", ToBytes("x")}};
  ASSERT_TRUE(world_.PublishPackage("/apps/one", files, dso::kProtoMasterSlave, 0).ok());
  auto content = world_.DownloadFile(world_.user_hosts()[0], "/apps/one", "fake");
  EXPECT_FALSE(content.ok());
}

TEST_F(GdnWorldTest, HttpdCachesBindings) {
  std::map<std::string, Bytes> files = {{"f", ToBytes("data")}};
  ASSERT_TRUE(world_.PublishPackage("/apps/pkg", files, dso::kProtoCacheInval, 0).ok());

  sim::NodeId user = world_.user_hosts()[0];
  GdnHttpd* httpd = world_.NearestHttpd(user);
  ASSERT_TRUE(world_.DownloadFile(user, "/apps/pkg", "f").ok());
  uint64_t binds_after_first = httpd->stats().binds;
  ASSERT_TRUE(world_.DownloadFile(user, "/apps/pkg", "f").ok());
  EXPECT_EQ(httpd->stats().binds, binds_after_first);
  EXPECT_GE(httpd->stats().bind_reuses, 1u);
}

// Requests for a package that arrive while its bind is running join that bind. A
// second bind would replace the first proxy, leak its GLS registration, and
// leave the requests routed to it stalled until their timeout.
TEST_F(GdnWorldTest, ConcurrentRequestsShareOneBind) {
  const Bytes content(3000, 0x5a);
  auto oid = world_.PublishPackage("/apps/crowd", {{"f", content}},
                                   dso::kProtoCacheInval, 0);
  ASSERT_TRUE(oid.ok()) << oid.status();

  sim::NodeId user = world_.user_hosts().back();
  GdnHttpd* httpd = world_.NearestHttpd(user);
  auto browser = world_.MakeBrowser(user);
  std::vector<Result<http::HttpResponse>> responses(4, Unavailable("pending"));
  for (size_t i = 0; i < responses.size(); ++i) {
    browser->Fetch(httpd->node(), "/packages/apps/crowd/files/f",
                   [&responses, i](Result<http::HttpResponse> r) {
                     responses[i] = std::move(r);
                   });
  }
  world_.Run();
  for (const auto& response : responses) {
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_EQ(response->status_code, 200);
    EXPECT_EQ(response->body, content);
  }
  EXPECT_EQ(httpd->stats().binds, 1u);

  size_t registered_on_httpd = 0;
  for (const auto& subnode : world_.services().gls().subnodes()) {
    for (const auto& [entry_oid, entry] : subnode->ExportEntries()) {
      if (entry_oid != *oid) {
        continue;
      }
      for (const gls::ContactAddress& address : entry.addresses) {
        registered_on_httpd += address.endpoint.node == httpd->node() ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(registered_on_httpd, 1u);
}

TEST_F(GdnWorldTest, HttpdActsAsReplicaAfterBind) {
  // With cache/invalidate replication, the HTTPD's local representative becomes a
  // cache replica registered in the GLS — a second download's reads are local.
  std::map<std::string, Bytes> files = {{"big", Bytes(50000, 0xab)}};
  ASSERT_TRUE(world_.PublishPackage("/apps/big", files, dso::kProtoCacheInval, 0).ok());

  sim::NodeId user = world_.user_hosts().back();  // far from the master in country 0
  ASSERT_TRUE(world_.DownloadFile(user, "/apps/big", "big").ok());

  // First download faulted the state into the local HTTPD cache; a second download
  // must not move the 50 KB across the top level again.
  uint64_t wan_before = world_.network().stats().BytesAtOrAbove(2);
  ASSERT_TRUE(world_.DownloadFile(user, "/apps/big", "big").ok());
  uint64_t wan_after = world_.network().stats().BytesAtOrAbove(2);
  EXPECT_LT(wan_after - wan_before, 10000u);
}

TEST_F(GdnWorldTest, ModeratorUpdatePropagatesToReaders) {
  std::map<std::string, Bytes> files = {{"VERSION", ToBytes("1.0")}};
  ASSERT_TRUE(world_.PublishPackage("/apps/tool", files, dso::kProtoMasterSlave, 0, {3})
                  .ok());

  sim::NodeId user = world_.user_hosts().back();
  auto v1 = world_.DownloadFile(user, "/apps/tool", "VERSION");
  ASSERT_TRUE(v1.ok());
  EXPECT_EQ(ToString(*v1), "1.0");

  // Moderator ships an update.
  Status update_status = Unavailable("pending");
  world_.moderator()->AddFile("/apps/tool", "VERSION", ToBytes("1.1"),
                              [&](Status s) { update_status = s; });
  world_.Run();
  ASSERT_TRUE(update_status.ok()) << update_status;

  auto v2 = world_.DownloadFile(user, "/apps/tool", "VERSION");
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(ToString(*v2), "1.1");
}

TEST_F(GdnWorldTest, RemovePackageMakesItUnreachable) {
  std::map<std::string, Bytes> files = {{"f", ToBytes("y")}};
  ASSERT_TRUE(world_.PublishPackage("/apps/temp", files, dso::kProtoMasterSlave, 0, {1})
                  .ok());
  ASSERT_TRUE(world_.DownloadFile(world_.user_hosts()[0], "/apps/temp", "f").ok());

  Status remove_status = Unavailable("pending");
  world_.moderator()->RemovePackage("/apps/temp", [&](Status s) { remove_status = s; });
  world_.Run();
  world_.services().naming_authority()->Flush();
  world_.Run();
  ASSERT_TRUE(remove_status.ok()) << remove_status;

  // Fresh HTTPD state (the old one may hold a stale binding): use another country.
  sim::NodeId other_user = world_.user_hosts()[7];
  ASSERT_NE(world_.services().CountryOf(other_user),
            world_.services().CountryOf(world_.user_hosts()[0]));
  auto content = world_.DownloadFile(other_user, "/apps/temp", "f");
  EXPECT_FALSE(content.ok());
}

// ---------------------------------------------------------------- Service layout

// One line per node: its NodeId, its topology name and " gdn" if the world
// counts it a GDN host. NodeIds decide link latencies and event order, so every
// virtual-time number a world reports depends on this layout staying put.
std::vector<std::string> LayoutLines(const GdnWorld& world, bool with_users) {
  std::set<sim::NodeId> users(world.user_hosts().begin(), world.user_hosts().end());
  std::vector<std::string> lines;
  for (sim::NodeId node = 0; node < world.topology().num_nodes(); ++node) {
    if (with_users || users.count(node) == 0) {
      lines.push_back(std::to_string(node) + " " + world.topology().NodeName(node) +
                      (world.IsGdnHost(node) ? " gdn" : ""));
    }
  }
  return lines;
}

TEST(GdnWorldLayoutTest, DefaultWorldKeepsEveryServiceNode) {
  GdnWorld world;
  const std::vector<std::string> expected = {
      "16 gls.world.0 gdn",
      "17 gls.world.c0.0 gdn",
      "18 gls.world.c0.k0.0 gdn",
      "19 gls.world.c0.k0.t0.0 gdn",
      "20 gls.world.c0.k0.t1.0 gdn",
      "21 gls.world.c0.k1.0 gdn",
      "22 gls.world.c0.k1.t0.0 gdn",
      "23 gls.world.c0.k1.t1.0 gdn",
      "24 gls.world.c1.0 gdn",
      "25 gls.world.c1.k0.0 gdn",
      "26 gls.world.c1.k0.t0.0 gdn",
      "27 gls.world.c1.k0.t1.0 gdn",
      "28 gls.world.c1.k1.0 gdn",
      "29 gls.world.c1.k1.t0.0 gdn",
      "30 gls.world.c1.k1.t1.0 gdn",
      "31 gos.world.c0.k0 gdn",
      "32 resolver.world.c0.k0 gdn",
      "33 gos.world.c0.k1 gdn",
      "34 resolver.world.c0.k1 gdn",
      "35 gos.world.c1.k0 gdn",
      "36 resolver.world.c1.k0 gdn",
      "37 gos.world.c1.k1 gdn",
      "38 resolver.world.c1.k1 gdn",
      "39 dns.primary gdn",
      "40 dns.secondary0 gdn",
      "41 gns.authority gdn",
      // Without `secure`, the moderator machine is not counted a GDN host.
      "42 moderator",
  };
  EXPECT_EQ(LayoutLines(world, /*with_users=*/false), expected);
}

// The benchmark's world: 4 continents x 4 countries x 2 sites, 8 users per site.
TEST(GdnWorldLayoutTest, BenchmarkShapedWorldKeepsEveryNode) {
  GdnWorldConfig config;
  config.fanouts = {4, 4, 2};
  config.user_hosts_per_site = 8;
  config.secure = true;
  config.gls_cache = true;
  config.httpd.bind_as_replica = true;
  GdnWorld world(config);
  std::string joined;
  for (const std::string& line : LayoutLines(world, /*with_users=*/true)) {
    joined += line + "\n";
  }
  EXPECT_EQ(Sha256::HexDigest(ToBytes(joined)),
            "85ef3f5a525343ef7c3acd67a3bdb42423d95d7cff72d3a7568032b3eb26ca2c");
}

TEST_F(GdnWorldTest, FrontPageServes) {
  auto browser = world_.MakeBrowser(world_.user_hosts()[0]);
  Result<http::HttpResponse> out = Unavailable("pending");
  browser->Fetch(world_.NearestHttpd(world_.user_hosts()[0])->node(), "/",
                 [&](Result<http::HttpResponse> r) { out = std::move(r); });
  world_.Run();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->status_code, 200);
  EXPECT_NE(ToString(out->body).find("Globe Distribution Network"), std::string::npos);
}

// ---------------------------------------------------------------- One-domain services

// What one run of the one-domain services did: each file's HTTP reply, and when
// and after how many events the simulator went idle.
struct OneDomainRun {
  std::vector<Result<http::HttpResponse>> replies;
  sim::SimTime finished = 0;
  uint64_t events = 0;
};

// The services StandaloneGdnNode runs, built on a one-domain topology the test
// owns so that a sim::Network can route between them: publish `files` through
// the shared publish flow, then download each one with a Browser.
OneDomainRun RunOneDomainServices(const std::map<std::string, Bytes>& files) {
  sim::Topology topology;
  sim::DomainId domain = topology.AddDomain("standalone", sim::kNoDomain);
  sim::Simulator simulator;
  sim::Network network(&simulator, &topology);
  sim::PlainTransport transport(&network);
  sec::KeyRegistry registry;
  GdnServices services(&transport, &topology, &registry, {domain}, {},
                       [](sim::NodeId, std::string_view) {});
  GdnServices::Pump drain = [&](const std::function<bool()>& done) {
    simulator.Run();
    return !done || done();
  };
  auto oid = services.PublishPackage("/apps/one/Site", files, dso::kProtoMasterSlave,
                                     /*master_country=*/0, {}, {}, drain);
  EXPECT_TRUE(oid.ok()) << oid.status();

  OneDomainRun run;
  Browser browser(&transport, topology.AddNode("user", domain));
  for (const auto& [path, content] : files) {
    browser.Fetch(services.GosOf(0)->host(),
                  http::UrlEncode("/packages/apps/one/Site/files/" + path),
                  [&](Result<http::HttpResponse> reply) {
                    run.replies.push_back(std::move(reply));
                  });
    simulator.Run();
  }
  run.finished = simulator.Now();
  run.events = simulator.executed_events();
  return run;
}

TEST(OneDomainServicesTest, PublishesAndServesInTheSimulator) {
  const std::map<std::string, Bytes> files = {
      {"README", Bytes(904, 0x52)},
      {"bin/hello", Bytes(4096, 0x42)},
  };
  OneDomainRun first = RunOneDomainServices(files);
  ASSERT_EQ(first.replies.size(), files.size());
  auto reply = first.replies.begin();
  for (const auto& [path, content] : files) {
    ASSERT_TRUE(reply->ok()) << path << ": " << reply->status();
    EXPECT_EQ((*reply)->status_code, 200) << path;
    EXPECT_EQ((*reply)->body, content) << path;
    ++reply;
  }

  // A second run replays the first exactly.
  OneDomainRun second = RunOneDomainServices(files);
  EXPECT_GT(first.events, 0u);
  EXPECT_EQ(second.finished, first.finished);
  EXPECT_EQ(second.events, first.events);
}

// ---------------------------------------------------------------- Secured world

class SecureGdnWorldTest : public ::testing::Test {
 protected:
  SecureGdnWorldTest() : world_(MakeConfig()) {}

  static GdnWorldConfig MakeConfig() {
    GdnWorldConfig config;
    config.fanouts = {2, 2};
    config.user_hosts_per_site = 2;
    config.secure = true;
    return config;
  }

  GdnWorld world_;
};

TEST_F(SecureGdnWorldTest, PublishAndDownloadStillWork) {
  std::map<std::string, Bytes> files = {{"f", ToBytes("secure bytes")}};
  auto oid = world_.PublishPackage("/apps/sec", files, dso::kProtoMasterSlave, 0, {1});
  ASSERT_TRUE(oid.ok()) << oid.status();

  auto content = world_.DownloadFile(world_.user_hosts().back(), "/apps/sec", "f");
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(ToString(*content), "secure bytes");
  EXPECT_GT(world_.secure_transport()->stats().handshakes, 0u);
}

TEST_F(SecureGdnWorldTest, UserCannotCommandGos) {
  sim::NodeId user = world_.user_hosts()[0];
  sim::Channel rpc(world_.transport(), user);
  Status status = OkStatus();
  rpc.Call(world_.services().GosOf(0)->endpoint(), "gos.create_first_replica",
           wire::Encode(gos::CreateFirstReplicaRequest{dso::kProtoClientServer,
                                                       kPackageTypeId, {}}),
           [&](Result<sim::PayloadView> result) { status = result.status(); });
  world_.Run();
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
}

TEST_F(SecureGdnWorldTest, UserCannotModifyPackageReplica) {
  std::map<std::string, Bytes> files = {{"f", ToBytes("original")}};
  auto oid = world_.PublishPackage("/apps/target", files, dso::kProtoMasterSlave, 0);
  ASSERT_TRUE(oid.ok());

  // The attacker binds to the package directly and attempts a write invocation.
  sim::NodeId attacker = world_.user_hosts()[1];
  dso::RuntimeSystem runtime(world_.transport(), attacker,
                             world_.services().gls().LeafDirectoryFor(attacker),
                             &world_.services().repository());
  std::unique_ptr<dso::BoundObject> bound;
  runtime.Bind(*oid, {}, [&](Result<std::unique_ptr<dso::BoundObject>> r) {
    ASSERT_TRUE(r.ok());
    bound = std::move(*r);
  });
  world_.Run();
  ASSERT_NE(bound, nullptr);

  // Reads are allowed...
  Result<Bytes> read = Unavailable("pending");
  bound->Call(pkg::kGetFileContents, {"f"},
              [&](Result<Bytes> r) { read = std::move(r); });
  world_.Run();
  EXPECT_TRUE(read.ok());

  // ...but the write is refused by the replica's write guard.
  Status write = OkStatus();
  bound->Call(pkg::kAddFile, {"f", ToBytes("trojaned")},
              [&](Result<sim::EmptyMessage> r) { write = r.status(); });
  world_.Run();
  EXPECT_EQ(write.code(), StatusCode::kPermissionDenied);

  // The file is untouched.
  auto content = world_.DownloadFile(world_.user_hosts()[2], "/apps/target", "f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(ToString(*content), "original");
}

// The read-only flag is the caller's word, and the caller may lie: a write
// flagged as a read must neither reach the package nor skip the write guard.
TEST_F(SecureGdnWorldTest, WriteFlaggedReadOnlyIsRefused) {
  std::map<std::string, Bytes> files = {{"f", ToBytes("original")}};
  auto oid = world_.PublishPackage("/apps/flagged", files, dso::kProtoMasterSlave, 0);
  ASSERT_TRUE(oid.ok()) << oid.status();
  dso::ReplicationObject* master = world_.services().GosOf(0)->FindReplica(*oid);
  ASSERT_NE(master, nullptr);
  const uint64_t published_version = master->version();

  // The attacker binds thinly (to the master, the only replica) and sends
  // pkg.addFile with the read-only flag set.
  sim::NodeId attacker = world_.user_hosts()[1];
  dso::RuntimeSystem runtime(world_.transport(), attacker,
                             world_.services().gls().LeafDirectoryFor(attacker),
                             &world_.services().repository());
  std::unique_ptr<dso::BoundObject> bound;
  runtime.Bind(*oid, {}, [&](Result<std::unique_ptr<dso::BoundObject>> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    bound = std::move(*r);
  });
  world_.Run();
  ASSERT_NE(bound, nullptr);
  ASSERT_FALSE(bound->replication->contact_address().has_value());  // a thin proxy

  dso::Invocation add = pkg::kAddFile.Marshal({"f", ToBytes("trojaned")});
  add.read_only = true;
  Result<Bytes> flagged = Unavailable("pending");
  bound->Invoke(add, [&](Result<Bytes> r) { flagged = std::move(r); });
  world_.Run();
  EXPECT_EQ(flagged.status().code(), StatusCode::kInvalidArgument) << flagged.status();

  // The same flagged invocation on dso.invoke meets the write guard.
  sim::Channel channel(world_.transport(), attacker);
  Status on_invoke = OkStatus();
  dso::kDsoInvoke.Call(&channel, master->contact_address()->endpoint, add,
                       [&](Result<Bytes> r) { on_invoke = r.status(); });
  world_.Run();
  EXPECT_EQ(on_invoke.code(), StatusCode::kPermissionDenied) << on_invoke;

  // The master still serves the published bytes at the published version.
  EXPECT_EQ(master->version(), published_version);
  Result<Bytes> served =
      master->semantics()->Invoke(pkg::kGetFileContents.Marshal({"f"}));
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_EQ(ToString(*served), "original");
  auto content = world_.DownloadFile(world_.user_hosts()[2], "/apps/flagged", "f");
  ASSERT_TRUE(content.ok()) << content.status();
  EXPECT_EQ(ToString(*content), "original");
}

TEST_F(SecureGdnWorldTest, MaintainerMayManageOnlyTheirPackage) {
  // Paper §2 (future work): "A GDN maintainer is allowed to manage just the contents
  // of a package."
  sim::NodeId maintainer_node = world_.user_hosts()[3];
  sec::PrincipalId maintainer =
      world_.AddMaintainerMachine("gimp-maintainer", maintainer_node);

  auto theirs = world_.PublishPackage("/apps/theirs", {{"f", ToBytes("v1")}},
                                      dso::kProtoMasterSlave, 0, {}, "", {maintainer});
  ASSERT_TRUE(theirs.ok()) << theirs.status();
  auto others = world_.PublishPackage("/apps/others", {{"f", ToBytes("v1")}},
                                      dso::kProtoMasterSlave, 0);
  ASSERT_TRUE(others.ok()) << others.status();

  auto write_as_maintainer = [&](const gls::ObjectId& oid) {
    dso::RuntimeSystem runtime(world_.transport(), maintainer_node,
                               world_.services().gls().LeafDirectoryFor(maintainer_node),
                               &world_.services().repository());
    std::unique_ptr<dso::BoundObject> bound;
    runtime.Bind(oid, {}, [&](Result<std::unique_ptr<dso::BoundObject>> r) {
      if (r.ok()) {
        bound = std::move(*r);
      }
    });
    world_.Run();
    Status status = Unavailable("bind failed");
    if (bound != nullptr) {
      bound->Call(pkg::kAddFile, {"f", ToBytes("maintained")},
                  [&](Result<sim::EmptyMessage> r) { status = r.status(); });
      world_.Run();
    }
    return status;
  };

  // Their own package: allowed.
  EXPECT_TRUE(write_as_maintainer(*theirs).ok());
  // Someone else's package: refused.
  Status foreign = write_as_maintainer(*others);
  ASSERT_FALSE(foreign.ok());
  EXPECT_EQ(foreign.code(), StatusCode::kPermissionDenied);

  // And an ordinary user still cannot touch the maintained package.
  sim::NodeId user = world_.user_hosts()[2];
  dso::RuntimeSystem user_runtime(world_.transport(), user,
                                  world_.services().gls().LeafDirectoryFor(user),
                                  &world_.services().repository());
  std::unique_ptr<dso::BoundObject> bound;
  user_runtime.Bind(*theirs, {}, [&](Result<std::unique_ptr<dso::BoundObject>> r) {
    if (r.ok()) {
      bound = std::move(*r);
    }
  });
  world_.Run();
  ASSERT_NE(bound, nullptr);
  Status user_write = Unavailable("pending");
  bound->Call(pkg::kAddFile, {"f", ToBytes("trojan")},
              [&](Result<sim::EmptyMessage> r) { user_write = r.status(); });
  world_.Run();
  EXPECT_EQ(user_write.code(), StatusCode::kPermissionDenied);
}

TEST_F(SecureGdnWorldTest, ModeratorCanModifyPackage) {
  std::map<std::string, Bytes> files = {{"f", ToBytes("v1")}};
  ASSERT_TRUE(world_.PublishPackage("/apps/mine", files, dso::kProtoMasterSlave, 0).ok());
  Status status = Unavailable("pending");
  world_.moderator()->AddFile("/apps/mine", "f", ToBytes("v2"),
                              [&](Status s) { status = s; });
  world_.Run();
  EXPECT_TRUE(status.ok()) << status;
}

}  // namespace
}  // namespace globe::gdn
