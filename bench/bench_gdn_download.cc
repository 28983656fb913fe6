// E4 — end-to-end GDN download vs. FTP-style central distribution (paper §1, §4,
// Figure 3).
//
// Claim: the GDN improves on anonymous FTP / plain WWW because replicas near the
// clients serve downloads fast and keep the load off the origin, while storage
// location stays transparent (the GLS finds the nearest replica).
//
// Workload: a 1 MB package; 60 downloads with a flash crowd concentrated in one
// country. Three deployments of the *same* download path:
//   ftp-central : one server, every client goes intercontinental
//   gdn-replica : GDN with a replica in the crowd's country
//   gdn-cache   : GDN with cache/invalidate — the crowd country's HTTPD fills
//                 its cache on first request (no pre-placement at all)
//
// Expected shape: mean latency drops by the intercontinental/LAN ratio; origin-host
// load collapses to ~1 state transfer; WAN bytes drop from 60 MB to ~1 MB.

#include "bench/bench_util.h"
#include "src/gdn/world.h"

using namespace globe;
using bench::Fmt;

namespace {

constexpr size_t kPackageBytes = 1 << 20;
constexpr int kDownloadsPerUser = 5;

struct RunResult {
  double mean_ms = 0;
  uint64_t wan_bytes = 0;
  uint64_t origin_messages = 0;
  int downloads = 0;
};

RunResult Run(gls::ProtocolId protocol, bool replica_in_crowd_country,
              bool httpd_may_replicate) {
  gdn::GdnWorldConfig config;
  config.fanouts = {2, 2, 2};
  config.user_hosts_per_site = 3;
  // FTP/plain-WWW baseline: the access point is a dumb relay (thin proxy), exactly
  // the "limited and inflexible support for replication" the paper faults (1).
  config.httpd.bind_as_replica = httpd_may_replicate;
  gdn::GdnWorld world(config);

  size_t crowd_country = world.num_countries() - 1;
  std::vector<size_t> replicas;
  if (replica_in_crowd_country) {
    replicas.push_back(crowd_country);
  }
  auto oid = world.PublishPackage("/apps/big/dist", {{"dist.tar.gz", Bytes(kPackageBytes, 7)}},
                                  protocol, /*master_country=*/0, replicas);
  if (!oid.ok()) {
    std::printf("publish failed: %s\n", oid.status().ToString().c_str());
    std::exit(1);
  }

  sim::NodeId origin_host = world.services().GosOf(0)->host();
  world.network().mutable_stats()->Clear();
  world.network().ClearPerNodeReceived();

  RunResult result;
  double total_ms = 0;
  for (int round = 0; round < kDownloadsPerUser; ++round) {
    for (sim::NodeId user : world.user_hosts()) {
      if (world.services().CountryOf(user) != static_cast<int>(crowd_country)) {
        continue;
      }
      auto content = world.DownloadFile(user, "/apps/big/dist", "dist.tar.gz");
      if (!content.ok()) {
        continue;
      }
      total_ms += sim::ToMillis(world.last_op_duration());
      ++result.downloads;
    }
  }
  result.mean_ms = result.downloads > 0 ? total_ms / result.downloads : 0;
  result.wan_bytes = world.network().stats().BytesAtOrAbove(2);
  auto it = world.network().per_node_received().find(origin_host);
  result.origin_messages = it == world.network().per_node_received().end() ? 0 : it->second;
  return result;
}

}  // namespace

int main() {
  bench::Title("E4 bench_gdn_download",
               "flash-crowd download: central FTP vs GDN replication (paper 1, 4)");
  bench::Note("1 MB package, flash crowd: every user of one country downloads %d times",
              kDownloadsPerUser);

  bench::Table table({"deployment", "downloads", "mean latency", "WAN bytes",
                      "origin msgs"},
                     15);

  RunResult ftp = Run(dso::kProtoMasterSlave, /*replica_in_crowd_country=*/false,
                      /*httpd_may_replicate=*/false);
  table.Row({"ftp-central", Fmt("%d", ftp.downloads), Fmt("%.1f ms", ftp.mean_ms),
             FormatBytes(ftp.wan_bytes), Fmt("%llu", (unsigned long long)ftp.origin_messages)});

  RunResult replica = Run(dso::kProtoMasterSlave, /*replica_in_crowd_country=*/true,
                          /*httpd_may_replicate=*/false);
  table.Row({"gdn-replica", Fmt("%d", replica.downloads), Fmt("%.1f ms", replica.mean_ms),
             FormatBytes(replica.wan_bytes),
             Fmt("%llu", (unsigned long long)replica.origin_messages)});

  RunResult cache = Run(dso::kProtoCacheInval, /*replica_in_crowd_country=*/false,
                        /*httpd_may_replicate=*/true);
  table.Row({"gdn-cache", Fmt("%d", cache.downloads), Fmt("%.1f ms", cache.mean_ms),
             FormatBytes(cache.wan_bytes),
             Fmt("%llu", (unsigned long long)cache.origin_messages)});

  bench::Note("");
  bench::Note("expected shape (paper): both GDN deployments beat the central server on");
  bench::Note("latency by the intercontinental/local ratio; WAN traffic collapses from");
  bench::Note("downloads x 1 MB to ~1 package transfer; the origin host serves the crowd");
  bench::Note("once instead of every request. gdn-cache achieves this with no manual");
  bench::Note("replica placement - the HTTPD's local representative became the replica.");
  return 0;
}
