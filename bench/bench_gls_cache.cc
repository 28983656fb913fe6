// E11 — GLS lookup caching and batched registration (ROADMAP north star: serve
// GDN-scale read traffic "as fast as the hardware allows").
//
// Part 1 — hot-OID read traffic: a popular package's replica lives on one
// continent; clients everywhere else look its OID up over and over (the paper's
// mid-tree bottleneck, §3.5). With per-subnode lookup caches the repeat lookups
// stop at their apex instead of re-walking the descent, so average hops and
// simulated latency drop while the answers stay identical.
//
// Part 2 — registration batching: a Globe Object Server re-registering N replicas
// (e.g. after a reboot, §7) one at a time pays N gls.insert round trips; one
// InsertBatch registers the same set in one round trip per leaf subnode and
// batches the forwarding-pointer chain hops as well.

#include "bench/bench_util.h"
#include "src/gls/deploy.h"
#include "src/sim/backend.h"

using namespace globe;
using bench::Fmt;

namespace {

constexpr int kHotObjects = 16;
constexpr int kRoundsPerClient = 8;

struct RunStats {
  uint64_t lookups = 0;
  uint64_t total_hops = 0;
  sim::SimTime total_latency = 0;
  gls::SubnodeStats directory;
  size_t resident_entries = 0;  // directory entries in memory at the end
  size_t cold_entries = 0;      // entries spilled to the per-subnode cold store
  double wall_seconds = 0;
};

RunStats RunHotReads(bool cached, size_t store_capacity = 0) {
  bench::Stopwatch wall;
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({3, 3, 3}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);

  gls::GlsDeploymentOptions options;
  options.node_options.enable_cache = cached;
  options.node_options.cache_ttl = 24 * 3600 * sim::kSecond;
  options.node_options.store_capacity = store_capacity;
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr, options);

  // Hot objects all live on continent 0.
  Rng rng(42);
  std::vector<gls::ObjectId> oids;
  std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> items;
  for (int i = 0; i < kHotObjects; ++i) {
    gls::ObjectId oid = gls::ObjectId::Generate(&rng);
    oids.push_back(oid);
    items.emplace_back(oid, gls::ContactAddress{{world.hosts[0], sim::kPortGos}, 1,
                                                gls::ReplicaRole::kMaster});
  }
  {
    auto registrar = deployment.MakeClient(world.hosts[0]);
    Status status = Unavailable("pending");
    registrar->InsertBatch(items, [&](Status s) { status = s; });
    simulator.Run();
    if (!status.ok()) {
      std::printf("registration failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }

  // Readers on the two other continents hammer the hot OIDs.
  std::vector<sim::NodeId> readers = {world.hosts[18], world.hosts[24],
                                      world.hosts[36], world.hosts[42]};
  RunStats stats;
  for (int round = 0; round < kRoundsPerClient; ++round) {
    for (sim::NodeId reader : readers) {
      auto client = deployment.MakeClient(reader);
      client->set_allow_cached(cached);
      for (const auto& oid : oids) {
        sim::SimTime started = simulator.Now();
        client->Lookup(oid, [&stats, started, &simulator](Result<gls::LookupResult> r) {
          if (!r.ok()) {
            std::printf("lookup failed: %s\n", r.status().ToString().c_str());
            std::exit(1);
          }
          ++stats.lookups;
          stats.total_hops += r->hops;
          stats.total_latency += simulator.Now() - started;
        });
        simulator.Run();
      }
    }
  }
  stats.directory = deployment.TotalStats();
  for (const auto& subnode : deployment.subnodes()) {
    stats.resident_entries += subnode->StoreResidentEntries();
    stats.cold_entries += subnode->StoreColdEntries();
  }
  stats.wall_seconds = wall.Seconds();
  return stats;
}

struct RegistrationStats {
  uint64_t round_trips = 0;  // client -> leaf directory requests
  sim::SimTime elapsed = 0;
  uint64_t network_messages = 0;  // every message the registration put on the wire
};

RegistrationStats RunRegistration(bool batched, int objects) {
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({3, 3, 3}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr);

  Rng rng(7);
  std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> items;
  for (int i = 0; i < objects; ++i) {
    items.emplace_back(gls::ObjectId::Generate(&rng),
                       gls::ContactAddress{{world.hosts[0], sim::kPortGos}, 1,
                                           gls::ReplicaRole::kMaster});
  }

  // Both variants fire everything up front (a rebooting GOS re-registers its whole
  // replica set at once); elapsed is measured at the last completion callback so
  // the trailing RPC-timeout drain does not inflate it.
  auto client = deployment.MakeClient(world.hosts[0]);
  RegistrationStats stats;
  sim::SimTime started = simulator.Now();
  sim::SimTime last_done = started;
  auto fail = [](Status s) {
    std::printf("registration failed: %s\n", s.ToString().c_str());
    std::exit(1);
  };
  if (batched) {
    client->InsertBatch(items, [&](Status s) {
      if (!s.ok()) fail(s);
      last_done = simulator.Now();
    });
    stats.round_trips = 1;
  } else {
    for (const auto& [oid, address] : items) {
      client->Insert(oid, address, [&](Status s) {
        if (!s.ok()) fail(s);
        last_done = simulator.Now();
      });
    }
    stats.round_trips = items.size();
  }
  simulator.Run();
  stats.elapsed = last_done - started;
  stats.network_messages = network.stats().TotalMessages();
  return stats;
}

}  // namespace

int main() {
  bench::Title("E11 bench_gls_cache",
               "GLS lookup caching + batched registration on the hot paths");

  bench::Note("%d hot objects on continent 0; %d readers x %d rounds from the other",
              kHotObjects, 4, kRoundsPerClient);
  bench::Note("continents; identical lookup results required in both runs.");

  RunStats uncached = RunHotReads(false);
  RunStats cached = RunHotReads(true);

  bench::Table table({"scenario", "lookups", "avg hops", "avg latency", "cache hits",
                      "hit rate"});
  auto row = [&](const char* label, const RunStats& r) {
    double n = static_cast<double>(r.lookups);
    double hit_rate = r.directory.cache_hits + r.directory.cache_misses > 0
                          ? static_cast<double>(r.directory.cache_hits) /
                                static_cast<double>(r.directory.cache_hits +
                                                    r.directory.cache_misses)
                          : 0.0;
    table.Row({label, Fmt("%llu", (unsigned long long)r.lookups),
               Fmt("%.2f", static_cast<double>(r.total_hops) / n),
               bench::Ms(static_cast<double>(r.total_latency) / n),
               Fmt("%llu", (unsigned long long)r.directory.cache_hits),
               Fmt("%.2f", hit_rate)});
  };
  row("uncached", uncached);
  row("cached", cached);

  if (cached.total_hops >= uncached.total_hops ||
      cached.total_latency >= uncached.total_latency) {
    std::printf("caching did not reduce hops/latency\n");
    return 1;
  }

  bench::Note("");
  bench::Note("expected shape: every repeat lookup stops at its apex cache, so the");
  bench::Note("cached run needs roughly half the directory hops per lookup and its");
  bench::Note("average simulated latency drops accordingly.");

  // Memory-bounded directory store, before/after: the same cached workload with
  // each subnode capped below the hot-object count, so the LRU spills and
  // faults entries while every lookup still succeeds with identical results.
  RunStats bounded = RunHotReads(true, /*store_capacity=*/kHotObjects / 2);
  if (bounded.lookups != cached.lookups || bounded.total_hops != cached.total_hops) {
    std::printf("bounded store changed lookup results\n");
    return 1;
  }
  if (bounded.directory.store_evictions == 0 ||
      bounded.directory.store_fault_ins == 0) {
    std::printf("bounded store never spilled/faulted\n");
    return 1;
  }
  bench::Note("");
  bench::Note("memory-bounded subnode store (capacity %d entries per subnode):",
              kHotObjects / 2);
  bench::Table store_table({"store", "resident", "cold", "evictions", "fault-ins",
                            "spilled KB", "wall s"});
  auto store_row = [&](const char* label, const RunStats& r) {
    store_table.Row({label, Fmt("%zu", r.resident_entries),
                     Fmt("%zu", r.cold_entries),
                     Fmt("%llu", (unsigned long long)r.directory.store_evictions),
                     Fmt("%llu", (unsigned long long)r.directory.store_fault_ins),
                     Fmt("%.1f", r.directory.store_spilled_bytes / 1024.0),
                     Fmt("%.3f", r.wall_seconds)});
  };
  store_row("unbounded (before)", cached);
  store_row("bounded (after)", bounded);

  constexpr int kRegistrations = 64;
  RegistrationStats loose = RunRegistration(false, kRegistrations);
  RegistrationStats batched = RunRegistration(true, kRegistrations);

  bench::Note("");
  bench::Note("registering %d replicas from one Globe Object Server:", kRegistrations);
  bench::Table reg_table(
      {"registration", "round trips", "elapsed", "network msgs"});
  reg_table.Row({"64 x Insert", Fmt("%llu", (unsigned long long)loose.round_trips),
                 bench::Ms(loose.elapsed),
                 Fmt("%llu", (unsigned long long)loose.network_messages)});
  reg_table.Row({"1 x InsertBatch",
                 Fmt("%llu", (unsigned long long)batched.round_trips),
                 bench::Ms(batched.elapsed),
                 Fmt("%llu", (unsigned long long)batched.network_messages)});

  bench::Note("");
  bench::Note("expected shape: the batch pays one client round trip instead of %d and",
              kRegistrations);
  bench::Note("amortizes the pointer chain into one gls.install_ptr hop per level.");
  return 0;
}
