// E5 — binding cost breakdown and the two-level naming assumption (paper §3.4, §5).
//
// Claim: binding = GNS resolve (name -> OID) + GLS lookup (OID -> contact address) +
// local-representative installation. The two-level scheme works because "we expect
// our name-to-object-identifier mappings to be stable", so DNS caching absorbs the
// GNS step: repeat binds resolve locally.
//
// Workload: bind to a package from a fresh client, breaking out the GNS and GLS
// phases; then sweep the TXT record TTL and measure resolver cache hit ratios over a
// request sequence with re-binds spread over time.
//
// Expected shape: a cold bind pays one resolver round trip to the authoritative
// server plus the GLS walk; warm binds cut the GNS phase to a resolver (local) hit;
// longer TTLs push the hit ratio toward 1 until the TTL exceeds the re-bind spacing.

#include "bench/bench_util.h"
#include "src/gdn/world.h"

using namespace globe;
using bench::Fmt;

namespace {

// Measures one full name-bind from a given user, phase by phase.
struct BindPhases {
  sim::SimTime gns_us = 0;
  sim::SimTime gls_us = 0;
  sim::SimTime install_us = 0;
  bool from_cache = false;
};

BindPhases MeasureBind(gdn::GdnWorld& world, sim::NodeId user, const std::string& name) {
  BindPhases phases;

  // Phase 1: GNS resolve.
  dns::GnsClient gns(world.transport(), user, gdn::kGdnZone,
                     world.services().naming_authority()->endpoint(),
                     world.services().ResolverFor(user)->endpoint());
  std::string oid_hex;
  sim::SimTime t0 = world.simulator().Now();
  sim::SimTime t1 = t0;
  gns.Resolve(name, [&](Result<std::string> r) {
    t1 = world.simulator().Now();
    if (r.ok()) {
      oid_hex = *r;
    }
  });
  world.Run();
  phases.gns_us = t1 - t0;
  if (oid_hex.empty()) {
    std::printf("resolve failed\n");
    std::exit(1);
  }
  auto oid = gls::ObjectId::FromHex(oid_hex);

  // Phase 2: GLS lookup.
  gls::GlsClient gls_client(world.transport(), user,
                            world.services().gls().LeafDirectoryFor(user));
  std::vector<gls::ContactAddress> addresses;
  t0 = world.simulator().Now();
  t1 = t0;
  gls_client.Lookup(*oid, [&](Result<gls::LookupResult> r) {
    t1 = world.simulator().Now();
    if (r.ok()) {
      addresses = r->addresses;
    }
  });
  world.Run();
  phases.gls_us = t1 - t0;

  // Phase 3: local representative installation (proxy construction is local; a
  // replica install would add the state fetch, covered in E7).
  t0 = world.simulator().Now();
  auto proxy = dso::MakeProxy(world.transport(), user, addresses);
  phases.install_us = world.simulator().Now() - t0;
  return phases;
}

}  // namespace

int main() {
  bench::Title("E5 bench_binding", "bind cost breakdown + DNS TTL sweep (paper 3.4, 5)");

  gdn::GdnWorldConfig config;
  config.fanouts = {2, 2, 2};
  gdn::GdnWorld world(config);
  auto oid = world.PublishPackage("/apps/bind/target", {{"f", Bytes(1000, 1)}},
                                  dso::kProtoMasterSlave, 0);
  if (!oid.ok()) {
    std::printf("publish failed\n");
    return 1;
  }

  // ---- Part 1: cold vs warm bind breakdown (far user). ----
  sim::NodeId user = world.user_hosts().back();
  BindPhases cold = MeasureBind(world, user, "/apps/bind/target");
  BindPhases warm = MeasureBind(world, user, "/apps/bind/target");

  bench::Table breakdown({"bind", "GNS resolve", "GLS lookup", "install", "total"});
  breakdown.Row({"cold", bench::Ms(cold.gns_us), bench::Ms(cold.gls_us),
                 bench::Ms(cold.install_us),
                 bench::Ms(cold.gns_us + cold.gls_us + cold.install_us)});
  breakdown.Row({"warm", bench::Ms(warm.gns_us), bench::Ms(warm.gls_us),
                 bench::Ms(warm.install_us),
                 bench::Ms(warm.gns_us + warm.gls_us + warm.install_us)});

  // ---- Part 2: TTL sweep — resolver hit ratio over spaced re-binds. ----
  bench::Note("");
  bench::Note("TTL sweep: 30 name resolutions spaced 120 s apart, same country resolver");
  bench::Table ttl_table({"TXT TTL", "cache hits", "upstream", "hit ratio"});
  for (uint32_t ttl : {0u, 60u, 300u, 1800u, 3600u}) {
    gdn::GdnWorldConfig sweep_config;
    sweep_config.fanouts = {2, 2, 2};
    sweep_config.naming_authority.record_ttl = ttl;
    gdn::GdnWorld sweep_world(sweep_config);
    auto sweep_oid = sweep_world.PublishPackage("/apps/ttl/pkg", {{"f", Bytes(100, 1)}},
                                                dso::kProtoMasterSlave, 0);
    if (!sweep_oid.ok()) {
      std::printf("publish failed\n");
      return 1;
    }
    sim::NodeId client = sweep_world.user_hosts()[0];
    dns::CachingResolver* resolver = sweep_world.services().ResolverFor(client);
    dns::GnsClient gns(sweep_world.transport(), client, gdn::kGdnZone,
                       sweep_world.services().naming_authority()->endpoint(),
                       resolver->endpoint());
    for (int i = 0; i < 30; ++i) {
      gns.Resolve("/apps/ttl/pkg", [](Result<std::string>) {});
      sweep_world.Run();
      sweep_world.simulator().RunUntil(sweep_world.simulator().Now() + 120 * sim::kSecond);
    }
    const auto& stats = resolver->stats();
    double ratio = stats.queries > 0
                       ? static_cast<double>(stats.cache_hits) / static_cast<double>(30)
                       : 0;
    ttl_table.Row({Fmt("%u s", ttl), Fmt("%llu", (unsigned long long)stats.cache_hits),
                   Fmt("%llu", (unsigned long long)stats.upstream_queries),
                   Fmt("%.2f", ratio)});
  }

  bench::Note("");
  bench::Note("expected shape (paper): the GNS phase dominates a cold bind from afar and");
  bench::Note("drops to a local resolver hit when warm; hit ratio rises with TTL and");
  bench::Note("reaches ~1 once the TTL exceeds the 120 s re-bind spacing, confirming the");
  bench::Note("stable-mapping assumption that justifies building the GNS on DNS.");
  return 0;
}
