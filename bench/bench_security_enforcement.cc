// E10 — end-to-end enforcement of the GDN security requirements (paper §6.1, §6.3).
//
// Claims under test, each mapped to an attack the secured GDN must refuse while the
// unsecured June-2000 configuration would accept it:
//   R1: "A Globe Object Server should accept only commands sent by a GDN moderator."
//   R2: "The GLS should accept only object registrations from Globe Object Servers
//        which are officially part of the GDN."
//   R3: "A GDN Naming Authority should accept only updates from moderator tools
//        operated by official GDN moderators."
//   R4: replicas must reject state-modifying invocations from unauthorized senders.
//   R5: TSIG protects the GDN Zone against forged DNS UPDATEs.
//   R6: in-flight tampering is detected by channel integrity protection.
//
// Output: one row per attack in both configurations, plus the verification overhead
// (simulated crypto CPU per legitimate operation).

#include "bench/bench_util.h"
#include "src/gdn/world.h"

using namespace globe;
using bench::Fmt;

namespace {

struct AttackOutcome {
  bool blocked = false;
  std::string detail;
};

// Runs the six attacks against a world; returns outcomes in order R1..R6.
// Execution order puts R4 before R2: an accepted forged GLS registration (R2 in the
// unsecured GDN) would otherwise redirect R4's bind to the attacker — realistic
// attack chaining, but each row should measure its own defence.
std::vector<AttackOutcome> RunAttacks(gdn::GdnWorld& world) {
  std::vector<AttackOutcome> outcomes(6);
  Rng rng(0x10);

  // A legitimate package to attack.
  auto oid = world.PublishPackage("/apps/victim", {{"f", ToBytes("genuine")}},
                                  dso::kProtoMasterSlave, 0);
  if (!oid.ok()) {
    std::printf("setup failed: %s\n", oid.status().ToString().c_str());
    std::exit(1);
  }
  sim::NodeId attacker = world.user_hosts()[1];

  // R1: unauthorized GOS command.
  {
    sim::Channel rpc(world.transport(), attacker);
    Status status = Unavailable("no answer");
    rpc.Call(world.services().GosOf(0)->endpoint(), "gos.create_first_replica",
             wire::Encode(gos::CreateFirstReplicaRequest{dso::kProtoClientServer,
                                                         gdn::kPackageTypeId, {}}),
             [&](Result<sim::PayloadView> r) { status = r.ok() ? OkStatus() : r.status(); });
    world.Run();
    outcomes[0] = {!status.ok(), status.ToString()};
  }

  // R4: state-modifying invocation on a replica (before R2 can pollute the GLS).
  {
    dso::RuntimeSystem runtime(world.transport(), attacker,
                               world.services().gls().LeafDirectoryFor(attacker),
                               &world.services().repository());
    std::unique_ptr<dso::BoundObject> bound;
    runtime.Bind(*oid, {}, [&](Result<std::unique_ptr<dso::BoundObject>> r) {
      if (r.ok()) {
        bound = std::move(*r);
      }
    });
    world.Run();
    Status status = Unavailable("bind failed");
    if (bound != nullptr) {
      bound->Call(gdn::pkg::kAddFile, {"f", ToBytes("trojan")},
                  [&](Result<sim::EmptyMessage> r) { status = r.status(); });
      world.Run();
    }
    outcomes[3] = {!status.ok(), status.ToString()};
  }

  // R2: forged GLS registration pointing the victim at the attacker.
  {
    gls::GlsClient gls_client(world.transport(), attacker,
                              world.services().gls().LeafDirectoryFor(attacker));
    Status status = Unavailable("no answer");
    gls_client.Insert(*oid,
                      gls::ContactAddress{{attacker, 4444}, dso::kProtoMasterSlave,
                                          gls::ReplicaRole::kMaster},
                      [&](Status s) { status = s; });
    world.Run();
    outcomes[1] = {!status.ok(), status.ToString()};
  }

  // R3: unauthorized GNS name registration.
  {
    dns::GnsClient gns(world.transport(), attacker, gdn::kGdnZone,
                       world.services().naming_authority()->endpoint(),
                       world.services().ResolverFor(attacker)->endpoint());
    Status status = Unavailable("no answer");
    gns.AddName("/apps/warez", gls::ObjectId::Generate(&rng).ToHex(),
                [&](Status s) { status = s; });
    world.Run();
    outcomes[2] = {!status.ok(), status.ToString()};
  }

  // R5: forged DNS UPDATE straight at the primary (attacker lacks the TSIG key).
  {
    dns::UpdateRequest update;
    update.zone = gdn::kGdnZone;
    update.additions.push_back(
        {"warez.gdn.cs.vu.nl", dns::RrType::kTxt, 3600, "badc0de"});
    update.key_name = "gdn-na";
    update.sequence = 999;
    dns::TsigSign(&update, ToBytes("guessed-key"));
    sim::Channel rpc(world.transport(), attacker);
    Status status = Unavailable("no answer");
    rpc.Call(world.services().dns_primary()->endpoint(), "dns.update",
             wire::Encode(update),
             [&](Result<sim::PayloadView> r) { status = r.ok() ? OkStatus() : r.status(); });
    world.Run();
    outcomes[4] = {!status.ok(), status.ToString()};
  }

  // R6: in-flight tampering of host-to-host traffic (flip bytes on the wire while a
  // legitimate moderator update flows).
  {
    world.network().SetTamperProbability(0.35);
    Status status = Unavailable("pending");
    world.moderator()->AddFile("/apps/victim", "f", ToBytes("genuine v2"),
                               [&](Status s) { status = s; });
    world.Run();
    world.network().SetTamperProbability(0.0);
    // Detection means: either the op failed loudly, or it succeeded and the content
    // is intact. Undetected corruption is the only failure.
    auto content = world.DownloadFile(world.user_hosts()[2], "/apps/victim", "f");
    bool intact = content.ok() && (ToString(*content) == "genuine" ||
                                   ToString(*content) == "genuine v2");
    outcomes[5] = {intact, intact ? "no corrupted state accepted"
                                  : "CORRUPTED STATE SERVED"};
  }

  return outcomes;
}

}  // namespace

int main() {
  bench::Title("E10 bench_security_enforcement",
               "attack rejection: unsecured first version vs secured GDN (paper 6)");

  const char* names[] = {
      "R1 rogue GOS command",    "R2 forged GLS registration", "R3 rogue GNS name add",
      "R4 replica write forgery", "R5 forged DNS UPDATE",       "R6 wire tampering",
  };

  gdn::GdnWorldConfig insecure_config;
  insecure_config.fanouts = {2, 2};
  gdn::GdnWorld insecure(insecure_config);
  auto insecure_outcomes = RunAttacks(insecure);

  gdn::GdnWorldConfig secure_config;
  secure_config.fanouts = {2, 2};
  secure_config.secure = true;
  gdn::GdnWorld secure(secure_config);
  auto secure_outcomes = RunAttacks(secure);

  bench::Table table({"attack", "June-2000 GDN", "secured GDN"}, 26);
  int secured_blocked = 0;
  for (int i = 0; i < 6; ++i) {
    table.Row({names[i], insecure_outcomes[i].blocked ? "blocked" : "ACCEPTED",
               secure_outcomes[i].blocked ? "blocked" : "ACCEPTED"});
    if (secure_outcomes[i].blocked) {
      ++secured_blocked;
    }
  }
  bench::Note("");
  bench::Note(
      "secured GDN blocked %d/6 attacks; verification overhead: %.1f ms simulated",
              secured_blocked, secure.secure_transport()->stats().crypto_us / 1000.0);
  bench::Note("crypto CPU over the whole run, %llu MAC failures, %llu auth failures",
              (unsigned long long)secure.secure_transport()->stats().mac_failures,
              (unsigned long long)secure.secure_transport()->stats().auth_failures);
  bench::Note("");
  bench::Note(
      "expected shape (paper): the first (June 2000) version runs in a controlled");
  bench::Note("environment with no security measures - most forgeries would be accepted");
  bench::Note(
      "(TSIG protects the zone even there). The second version must block all six.");
  return 0;
}
