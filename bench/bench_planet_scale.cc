// E12 — planet-scale worlds: the sharded deterministic event engine and the
// memory-bounded directory subnodes, pushed to the scale the tentpole names —
// a million registered OIDs and a hundred thousand client machines throwing a
// Zipf flash crowd at the location service.
//
// The same pre-generated workload runs twice on the one event engine: once
// with one shard (the sequential case), once with four (one shard per
// continent). Reported per shard count: host wall-clock per phase, executed events,
// events/sec over the flash crowd, lookup success, store spill traffic and
// peak RSS. The bench fails if any registration is lost (a lookup that finds
// no address), if bounded subnodes never evict/fault, or if any subnode's
// resident set ever exceeded its capacity.
//
// Mid-run the root directory node — holding a forwarding pointer for every one
// of the million OIDs — crosses the capacity-driven split threshold and is
// repartitioned live from one subnode to two (GlsDeployment::
// SplitOverloadedNodes); the flash crowd then routes against the split node.
//
// NOTE on speedup: shards only help with real cores. On a single-core host the
// sharded run degenerates to inline windows and the honest speedup is ~1x; the
// row exists so multi-core hosts (CI: 4 vCPUs) can watch the ratio.
//
// Scale knobs (env): GLOBE_PLANET_OIDS, GLOBE_PLANET_CLIENTS for quick local
// iteration; defaults are the tentpole scale.

#include <atomic>
#include <cinttypes>

#include "bench/bench_util.h"
#include "src/gls/deploy.h"
#include "src/sim/backend.h"

using namespace globe;
using bench::Fmt;

namespace {

constexpr size_t kShards = 4;
constexpr size_t kCountries = 16;  // fanouts {4,4}: 4 continents x 4 countries
constexpr size_t kBatch = 1000;    // OIDs per InsertBatch
constexpr size_t kStoreCapacity = 4096;  // resident entries per subnode

size_t EnvOr(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

// The workload, generated once so both shard counts replay the identical scenario.
struct Workload {
  std::vector<gls::ObjectId> oids;        // oids[i] registered in country i%16
  std::vector<uint32_t> lookup_oid;       // flash crowd: client j looks this up
};

struct RunResult {
  double insert_wall = 0;
  double split_wall = 0;
  double crowd_wall = 0;
  uint64_t executed = 0;
  double crowd_events_per_sec = 0;
  uint64_t lookups_ok = 0;
  uint64_t lookups_lost = 0;  // failed, or resolved to an empty address set
  uint64_t evictions = 0;
  uint64_t fault_ins = 0;
  uint64_t spilled_bytes = 0;
  bool over_capacity = false;
  int splits = 0;
  size_t root_subnodes = 0;
  size_t root_entries = 0;
  uint64_t windows = 0;
  uint64_t parallel_windows = 0;
  uint64_t lookahead_violations = 0;
  double peak_rss_mb = 0;
};

RunResult RunWorld(size_t shards, const Workload& load, size_t clients) {
  RunResult result;
  sim::UniformWorld world =
      sim::BuildUniformWorld({4, 4}, static_cast<int>(clients / kCountries));
  sim::NetworkOptions net_options;

  // Continent (depth-1 domain) of a node, for shard homing.
  auto continent_of = [&](sim::NodeId node) {
    sim::DomainId d = world.topology.NodeDomain(node);
    while (world.topology.DomainDepth(d) > 1) {
      d = world.topology.DomainParent(d);
    }
    return d;
  };

  // Lookahead: any cross-shard message climbs at least one level (distinct
  // continents only meet at the root), so the ascent-level-1 propagation
  // latency lower-bounds every cross-shard delivery — transmit time and
  // per-message overhead only add to it. Using host-to-host cross-continent
  // latency instead would over-estimate: a continent-level directory host
  // talking to a root-level host is only one level of ascent. One shard
  // ignores it.
  sim::Simulator engine(shards,
                        static_cast<sim::SimTime>(net_options.profile.LatencyAt(1)));

  // Home every node on its continent's shard. Assignment must happen BEFORE a
  // node's services register ports: the network keeps per-shard handler maps,
  // so a port registered under the wrong shard is unreachable. The world hosts
  // are assigned up front; GLS hosts (including those added later by a split)
  // are assigned at creation via the deployment's on_host_created hook.
  std::map<sim::DomainId, size_t> continent_index;
  auto assign_node = [&](sim::NodeId node) {
    sim::DomainId c = continent_of(node);
    size_t index = continent_index.emplace(c, continent_index.size()).first->second;
    engine.AssignNode(node, index % shards);
  };
  for (sim::NodeId node = 0; node < world.topology.num_nodes(); ++node) {
    assign_node(node);
  }

  sim::Network network(&engine, &world.topology, net_options);
  sim::PlainTransport transport(&network);

  gls::GlsDeploymentOptions options;
  options.node_options.enable_cache = true;
  options.node_options.store_capacity = kStoreCapacity;
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr, options,
                                assign_node);

  // ---- Phase 1: registration. Each country's registrar host batch-inserts
  // its slice of the OID space (oids[i] belongs to country i%16). Completion
  // counters are atomics: the callbacks run on the shard worker threads.
  bench::Stopwatch wall;
  size_t hosts_per_country = world.hosts.size() / kCountries;
  std::atomic<uint64_t> insert_failures{0};
  std::atomic<uint64_t> batches_done{0};
  uint64_t batches_scheduled = 0;
  std::vector<std::shared_ptr<gls::GlsClient>> registrars;
  for (size_t c = 0; c < kCountries; ++c) {
    sim::NodeId registrar = world.hosts[c * hosts_per_country];
    auto client = std::make_shared<gls::GlsClient>(
        &transport, registrar, deployment.LeafDirectoryFor(registrar));
    registrars.push_back(client);
    size_t per_country = (load.oids.size() + kCountries - 1 - c) / kCountries;
    for (size_t b = 0; b * kBatch < per_country; ++b) {
      size_t begin = b * kBatch;
      size_t end = std::min(begin + kBatch, per_country);
      ++batches_scheduled;
      // Stagger batches so the in-flight window stays bounded.
      engine.ScheduleAtForNode(
          registrar, 1 + b * 10 * sim::kMillisecond,
          [&, client, registrar, c, begin, end] {
            std::vector<std::pair<gls::ObjectId, gls::ContactAddress>> items;
            items.reserve(end - begin);
            for (size_t k = begin; k < end; ++k) {
              items.emplace_back(load.oids[c + kCountries * k],
                                 gls::ContactAddress{{registrar, sim::kPortGos},
                                                     1,
                                                     gls::ReplicaRole::kMaster});
            }
            client->InsertBatch(items, [&](Status s) {
              ++batches_done;
              if (!s.ok()) {
                ++insert_failures;
              }
            });
          });
    }
  }
  engine.Run();
  result.insert_wall = wall.Seconds();
  registrars.clear();
  if (insert_failures > 0 || batches_done != batches_scheduled) {
    std::printf("registration incomplete: %" PRIu64 " failed, %" PRIu64 "/%" PRIu64
                " acked\n",
                insert_failures.load(), batches_done.load(), batches_scheduled);
    std::exit(1);
  }

  // ---- Phase 2: capacity-driven split. The root holds a pointer entry per
  // OID; any subnode over a quarter of the OID space triggers a split.
  wall.Reset();
  result.splits = deployment.SplitOverloadedNodes(load.oids.size() / 4);
  result.split_wall = wall.Seconds();
  const gls::DirectoryRef& root = deployment.DirectoryFor(0);
  result.root_subnodes = root.subnodes.size();
  for (const auto* subnode : deployment.SubnodesOf(0)) {
    result.root_entries += subnode->TotalEntries();
  }

  // ---- Phase 3: Zipf flash crowd. Every client host issues one cached
  // lookup of its pre-sampled OID, 1us apart (waves of arrival, not a bang).
  wall.Reset();
  uint64_t executed_before = engine.executed_events();
  sim::SimTime t0 = engine.Now() + 1;
  std::atomic<uint64_t> lookups_ok{0};
  std::atomic<uint64_t> lookups_lost{0};
  std::vector<std::shared_ptr<gls::GlsClient>> crowd;
  crowd.reserve(clients);
  for (size_t j = 0; j < clients; ++j) {
    sim::NodeId host = world.hosts[j % world.hosts.size()];
    auto client = std::make_shared<gls::GlsClient>(
        &transport, host, deployment.LeafDirectoryFor(host));
    client->set_allow_cached(true);
    crowd.push_back(client);
    const gls::ObjectId& oid = load.oids[load.lookup_oid[j]];
    engine.ScheduleAtForNode(host, t0 + j, [&, client, oid] {
      client->Lookup(oid, [&](Result<gls::LookupResult> r) {
        if (r.ok() && !r->addresses.empty()) {
          ++lookups_ok;
        } else {
          ++lookups_lost;
        }
      });
    });
  }
  engine.Run();
  result.lookups_ok = lookups_ok;
  result.lookups_lost = lookups_lost;
  result.crowd_wall = wall.Seconds();
  result.executed = engine.executed_events();
  result.crowd_events_per_sec =
      result.crowd_wall > 0
          ? static_cast<double>(result.executed - executed_before) / result.crowd_wall
          : 0;

  gls::SubnodeStats totals = deployment.TotalStats();
  result.evictions = totals.store_evictions;
  result.fault_ins = totals.store_fault_ins;
  result.spilled_bytes = totals.store_spilled_bytes;
  for (const auto& subnode : deployment.subnodes()) {
    if (subnode->stats().store_peak_resident > kStoreCapacity) {
      result.over_capacity = true;
    }
  }
  result.windows = engine.windows_run();
  result.parallel_windows = engine.parallel_windows();
  result.lookahead_violations = engine.lookahead_violations();
  result.peak_rss_mb = bench::PeakRssMb();
  return result;
}

}  // namespace

int main() {
  size_t num_oids = EnvOr("GLOBE_PLANET_OIDS", 1000000);
  size_t num_clients = EnvOr("GLOBE_PLANET_CLIENTS", 100000);
  num_clients -= num_clients % kCountries;  // equal hosts per country

  bench::Title("E12 bench_planet_scale",
               "sharded event engine + memory-bounded directory at planet scale");
  bench::Note("%zu OIDs registered, %zu client hosts, Zipf(1.0) flash crowd;",
              num_oids, num_clients);
  bench::Note("store capacity %zu entries/subnode; same workload on 1 and %zu shards.",
              kStoreCapacity, kShards);

  // One workload, replayed on both shard counts.
  Workload load;
  Rng oid_rng(0x9157);
  load.oids.reserve(num_oids);
  for (size_t i = 0; i < num_oids; ++i) {
    load.oids.push_back(gls::ObjectId::Generate(&oid_rng));
  }
  ZipfSampler zipf(num_oids, 1.0);
  Rng crowd_rng(0x424242);
  load.lookup_oid.reserve(num_clients);
  for (size_t j = 0; j < num_clients; ++j) {
    load.lookup_oid.push_back(static_cast<uint32_t>(zipf.Sample(&crowd_rng)));
  }

  RunResult sequential = RunWorld(1, load, num_clients);
  RunResult sharded = RunWorld(kShards, load, num_clients);

  bench::Table table({"engine", "insert s", "split s", "crowd s", "events",
                      "events/sec", "lookups ok", "lost", "peak RSS MB"});
  auto row = [&](const char* label, const RunResult& r) {
    table.Row({label, Fmt("%.2f", r.insert_wall), Fmt("%.2f", r.split_wall),
               Fmt("%.2f", r.crowd_wall), Fmt("%" PRIu64, r.executed),
               Fmt("%.0f", r.crowd_events_per_sec), Fmt("%" PRIu64, r.lookups_ok),
               Fmt("%" PRIu64, r.lookups_lost), Fmt("%.0f", r.peak_rss_mb)});
  };
  row("sequential", sequential);
  row(Fmt("sharded x%zu", kShards).c_str(), sharded);

  bench::Table details({"metric", "sequential", "sharded"});
  details.Row({"splits (root 1->2)", Fmt("%d", sequential.splits),
               Fmt("%d", sharded.splits)});
  details.Row({"root entries after split", Fmt("%zu", sequential.root_entries),
               Fmt("%zu", sharded.root_entries)});
  details.Row({"store evictions", Fmt("%" PRIu64, sequential.evictions),
               Fmt("%" PRIu64, sharded.evictions)});
  details.Row({"store fault-ins", Fmt("%" PRIu64, sequential.fault_ins),
               Fmt("%" PRIu64, sharded.fault_ins)});
  details.Row({"spilled MB", Fmt("%.1f", sequential.spilled_bytes / 1048576.0),
               Fmt("%.1f", sharded.spilled_bytes / 1048576.0)});
  details.Row({"windows run", Fmt("%" PRIu64, sequential.windows),
               Fmt("%" PRIu64, sharded.windows)});
  details.Row({"parallel windows", Fmt("%" PRIu64, sequential.parallel_windows),
               Fmt("%" PRIu64, sharded.parallel_windows)});
  details.Row({"lookahead violations", Fmt("%" PRIu64, sequential.lookahead_violations),
               Fmt("%" PRIu64, sharded.lookahead_violations)});

  double speedup = sharded.crowd_wall > 0
                       ? sequential.crowd_wall / sharded.crowd_wall
                       : 0;
  bench::Note("");
  bench::Note("flash-crowd speedup sharded vs sequential: %.2fx (machine-bound;",
              speedup);
  bench::Note("~1x expected on a 1-core host where windows run inline).");

  // Hard guarantees the tentpole names.
  for (const RunResult* r : {&sequential, &sharded}) {
    if (r->lookups_lost > 0) {
      std::printf("FAIL: %" PRIu64 " lookups lost a registration\n",
                  r->lookups_lost);
      return 1;
    }
    if (r->evictions == 0 || r->fault_ins == 0) {
      std::printf("FAIL: bounded store never evicted/faulted\n");
      return 1;
    }
    if (r->over_capacity) {
      std::printf("FAIL: a subnode exceeded its resident capacity\n");
      return 1;
    }
    if (r->splits != 1 || r->root_subnodes != 2 || r->root_entries != num_oids) {
      std::printf("FAIL: capacity-driven root split went wrong "
                  "(splits=%d subnodes=%zu entries=%zu)\n",
                  r->splits, r->root_subnodes, r->root_entries);
      return 1;
    }
  }
  if (sharded.lookups_ok != sequential.lookups_ok) {
    std::printf("FAIL: shard counts disagree on lookup outcomes (%" PRIu64
                " vs %" PRIu64 ")\n",
                sequential.lookups_ok, sharded.lookups_ok);
    return 1;
  }
  return 0;
}
