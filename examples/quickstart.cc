// Quickstart: publish a package to the Globe Distribution Network and download it
// through a standard (simulated) web browser.
//
// Build and run:
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "src/gdn/world.h"
#include "src/util/strings.h"
#include "src/util/sha256.h"

using namespace globe;

int main() {
  std::printf("== Globe Distribution Network: quickstart ==\n\n");

  // A small world: 2 continents x 2 countries x 2 sites, 2 user machines per site.
  // GdnWorld deploys the whole Figure-3 architecture: GLS directory tree, DNS-based
  // GNS, one Globe Object Server + GDN-HTTPD per country, moderator tool.
  gdn::GdnWorld world;
  std::printf("world: %zu countries, %zu user machines, %zu GLS directory nodes\n",
              world.num_countries(), world.user_hosts().size(),
              world.services().gls().subnodes().size());

  // The moderator publishes the Gimp package: master replica in country 0, a slave
  // in country 2, name registered as /apps/graphics/Gimp.
  std::map<std::string, Bytes> files = {
      {"bin/gimp", ToBytes("#!/bin/sh\necho 'GNU Image Manipulation Program 1.1.29'\n")},
      {"README", ToBytes("The GIMP: free software image editing for X11.\n")},
  };
  auto oid = world.PublishPackage("/apps/graphics/Gimp", files, dso::kProtoMasterSlave,
                                  /*master_country=*/0, /*replica_countries=*/{2});
  if (!oid.ok()) {
    std::printf("publish failed: %s\n", oid.status().ToString().c_str());
    return 1;
  }
  std::printf("\npublished /apps/graphics/Gimp\n  object id: %s\n  replicas : country 0 "
              "(master), country 2 (slave)\n",
              oid->ToHex().c_str());

  // A user on the other side of the world fetches the package listing HTML...
  sim::NodeId user = world.user_hosts().back();
  auto listing = world.FetchListing(user, "/apps/graphics/Gimp");
  if (!listing.ok()) {
    std::printf("listing failed: %s\n", listing.status().ToString().c_str());
    return 1;
  }
  std::printf("\nHTML listing served to user node %u (%.1f ms):\n%s\n", user,
              sim::ToMillis(world.last_op_duration()), listing->c_str());

  // ...and downloads a file through their nearest GDN-HTTPD.
  auto content = world.DownloadFile(user, "/apps/graphics/Gimp", "README");
  if (!content.ok()) {
    std::printf("download failed: %s\n", content.status().ToString().c_str());
    return 1;
  }
  std::printf("downloaded README (%zu bytes, %.1f ms): %s", content->size(),
              sim::ToMillis(world.last_op_duration()), ToString(*content).c_str());
  std::printf("sha256: %s\n", Sha256::HexDigest(*content).c_str());

  std::printf("\nnetwork totals: %llu messages, %s across all links\n",
              static_cast<unsigned long long>(world.network().stats().TotalMessages()),
              FormatBytes(world.network().stats().TotalBytes()).c_str());
  std::printf("== done ==\n");
  return 0;
}
