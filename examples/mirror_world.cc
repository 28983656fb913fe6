// Mirror world: a three-continent GDN deployment facing a flash crowd.
//
// Shows the paper's core argument (§3.1) in action: the same package served (a) from
// a single central master and (b) with replicas near the users, comparing response
// times and wide-area traffic when one country's users all download at once.

#include <cstdio>

#include "src/gdn/world.h"
#include "src/util/strings.h"

using namespace globe;

namespace {

struct CrowdResult {
  double mean_latency_ms = 0;
  uint64_t wan_bytes = 0;
};

// Every user in the last country downloads the file once.
CrowdResult RunFlashCrowd(gdn::GdnWorld& world, const std::string& package) {
  int last_country = static_cast<int>(world.num_countries()) - 1;
  world.network().mutable_stats()->Clear();

  double total_ms = 0;
  int downloads = 0;
  for (sim::NodeId user : world.user_hosts()) {
    if (world.services().CountryOf(user) != last_country) {
      continue;
    }
    auto content = world.DownloadFile(user, package, "distribution.tar.gz");
    if (!content.ok()) {
      std::printf("  download failed: %s\n", content.status().ToString().c_str());
      continue;
    }
    total_ms += sim::ToMillis(world.last_op_duration());
    ++downloads;
  }
  return CrowdResult{downloads > 0 ? total_ms / downloads : 0,
                     world.network().stats().BytesAtOrAbove(2)};
}

}  // namespace

int main() {
  std::printf("== GDN mirror world: flash crowd in one country ==\n\n");

  gdn::GdnWorldConfig config;
  config.fanouts = {3, 2, 2};       // 3 continents x 2 countries x 2 sites
  config.user_hosts_per_site = 4;   // 48 user machines
  Bytes distribution(400000, 0x42);  // a 400 KB "Linux distribution"

  // Scenario A: central only — one master replica on continent 0.
  {
    gdn::GdnWorld world(config);
    auto oid = world.PublishPackage("/os/linux/slackware",
                                    {{"distribution.tar.gz", distribution}},
                                    dso::kProtoMasterSlave, /*master_country=*/0);
    if (!oid.ok()) {
      std::printf("publish failed: %s\n", oid.status().ToString().c_str());
      return 1;
    }
    CrowdResult central = RunFlashCrowd(world, "/os/linux/slackware");
    std::printf("central master only:\n  mean download latency: %.1f ms\n"
                "  wide-area bytes     : %s\n\n",
                central.mean_latency_ms, FormatBytes(central.wan_bytes).c_str());
  }

  // Scenario B: replicas on every continent (one per first country of each).
  {
    gdn::GdnWorld world(config);
    std::vector<size_t> replicas;
    for (size_t c = 1; c < world.num_countries(); ++c) {
      replicas.push_back(c);
    }
    auto oid = world.PublishPackage("/os/linux/slackware",
                                    {{"distribution.tar.gz", distribution}},
                                    dso::kProtoMasterSlave, 0, replicas);
    if (!oid.ok()) {
      std::printf("publish failed: %s\n", oid.status().ToString().c_str());
      return 1;
    }
    CrowdResult mirrored = RunFlashCrowd(world, "/os/linux/slackware");
    std::printf("replica in every country:\n  mean download latency: %.1f ms\n"
                "  wide-area bytes     : %s\n\n",
                mirrored.mean_latency_ms, FormatBytes(mirrored.wan_bytes).c_str());
  }

  std::printf("The replicated deployment serves the crowd from within the country:\n"
              "latency drops to LAN scale and the flash crowd stops consuming\n"
              "intercontinental bandwidth — the paper's selective-replication case.\n");
  return 0;
}
