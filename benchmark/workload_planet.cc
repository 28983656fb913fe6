// planet_lookup: the Globe Location Service alone, at scale, on the sharded
// engine.
//
// Built the way bench_planet_scale builds its world — 4 continents x 4
// countries, a directory node per domain, memory-bounded subnode stores, the
// root split once it holds more than a quarter of the OID space — with the
// benchmark's LayerTransport in front of the plain transport on traced runs,
// and with a per-request service time on every subnode so an open-loop crowd
// queues the way a real directory would. Each
// episode registers a seeded OID set in batches, then throws a Zipf(1.0)
// crowd of lookups at it, open loop, from client hosts spread evenly over the
// 16 countries. Every resolved address is checked against the registrar that
// inserted the OID.
//
// Lookups walk the tree (no lookup caches): a Zipf(1.0) stream repeats only
// about half its lookups per country, so with caches the median lookup sits
// on the boundary between a cached and a walked path and flips between them
// from seed to seed. Walking, three lookups in four cross the split root.

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>

#include "benchmark/workloads.h"
#include "src/gls/deploy.h"
#include "src/sim/backend.h"
#include "src/util/rng.h"

namespace globe::benchmark {
namespace {

constexpr size_t kCountries = 16;  // fanouts {4, 4}
constexpr size_t kShards = 4;      // one per continent
constexpr size_t kBatch = 1000;    // OIDs per gls.insert_batch
constexpr size_t kStoreCapacity = 4096;
constexpr sim::SimTime kServiceTime = 80;  // us of subnode CPU per request
constexpr double kLookupRate = 20000;      // lookups per virtual second
constexpr double kSloMs = 500;

struct PlanetSize {
  size_t oids = 0;
  size_t clients = 0;  // a multiple of kCountries
  size_t lookups = 0;
};

PlanetSize SizeFor(const RunOptions& options) {
  PlanetSize size;
  size.oids = static_cast<size_t>(160000 * options.scale) / kCountries * kCountries;
  size.clients = static_cast<size_t>(16000 * options.scale) / kCountries * kCountries;
  size.lookups = static_cast<size_t>(60000 * options.scale);
  size.oids = std::max<size_t>(size.oids, 16 * kCountries);
  size.clients = std::max<size_t>(size.clients, kCountries);
  size.lookups = std::max<size_t>(size.lookups, 100);
  return size;
}

// The run's inputs: the OID set and every lookup (when, who, which OID).
struct Inputs {
  std::vector<gls::ObjectId> oids;  // oids[i] is registered by country i % 16
  std::vector<sim::SimTime> at;
  std::vector<uint32_t> client;
  std::vector<uint32_t> oid;
  std::vector<uint8_t> repeat;  // an earlier lookup asked for the same OID
};

Inputs MakeInputs(const PlanetSize& size, uint64_t seed) {
  Inputs in;
  Rng oid_rng(seed * 0x9E3779B97F4A7C15ULL + 0x44);
  in.oids.reserve(size.oids);
  for (size_t i = 0; i < size.oids; ++i) {
    in.oids.push_back(gls::ObjectId::Generate(&oid_rng));
  }
  Rng rng(seed * 0xBF58476D1CE4E5B9ULL + 0x55);
  ZipfSampler zipf(size.oids, 1.0);
  std::vector<uint8_t> seen(size.oids, 0);
  double t = 0;
  for (size_t j = 0; j < size.lookups; ++j) {
    t += rng.Exponential(kLookupRate);
    in.at.push_back(static_cast<sim::SimTime>(t * 1e6));  // from the crowd's start
    in.client.push_back(static_cast<uint32_t>(rng.UniformInt(size.clients)));
    auto k = static_cast<uint32_t>(zipf.Sample(&rng));
    in.oid.push_back(k);
    in.repeat.push_back(seen[k]);
    seen[k] = 1;
  }
  return in;
}

struct Episode {
  double setup_s = 0;
  double crowd_s = 0;
  std::vector<double> latency_ms;  // successful lookups
  std::vector<uint8_t> repeat;      // parallel to latency_ms
  uint64_t failures = 0;
  uint64_t within_slo = 0;
  uint64_t events = 0;
  uint64_t windows = 0;
  uint64_t parallel_windows = 0;
  uint64_t allocs = 0;
  uint64_t ports = 0;
  HostLedger ledger;
  // Host cost outside every span, calibrated in the same world after the
  // crowd: per engine event, and per frame the network delivers.
  double event_ns = 0;
  double delivery_ns = 0;
};

// Measures, on the episode's own engine and network, what the spans cannot
// see: an engine event's dispatch (no-op events carrying a delivery-sized
// closure, at random times so the heap is as deep and disordered as under a
// crowd), and the network's delivery path in front of the handler (probe
// frames between real client and directory hosts, to no-op handlers).
void CalibrateOutsideSpans(sim::ShardedSimulator* engine, LayerTransport* transport,
                           const std::vector<sim::NodeId>& from,
                           const std::vector<sim::NodeId>& to, size_t count,
                           Episode* episode) {
  struct Payload {
    std::shared_ptr<int> pin = std::make_shared<int>(0);
    sim::Endpoint src;
    sim::Endpoint dst;
    uint64_t pad[4] = {};
  };
  Rng rng(0xCA11B);
  uint64_t sink = 0;
  sim::SimTime base = engine->Now() + 1;
  for (size_t i = 0; i < count; ++i) {
    engine->ScheduleAt(base + rng.UniformInt(count),
                       [p = Payload(), &sink] { sink += p.pad[0] + 1; });
  }
  Stopwatch events;
  engine->Run();
  episode->event_ns = events.Seconds() * 1e9 / static_cast<double>(count);
  if (sink != count) {  // also keeps the events' work from being optimized out
    std::abort();
  }

  constexpr uint16_t kProbePort = 9;
  for (sim::NodeId node : to) {
    transport->RegisterPort(node, kProbePort, [](const sim::TransportDelivery&) {});
  }
  Bytes frame(48, 0x5a);  // about a lookup frame
  base = engine->Now() + 1;
  for (size_t i = 0; i < count; ++i) {
    sim::Endpoint src{from[rng.UniformInt(from.size())], kProbePort};
    sim::Endpoint dst{to[rng.UniformInt(to.size())], kProbePort};
    engine->ScheduleAt(base + rng.UniformInt(count),
                       [transport, src, dst, &frame] { transport->Send(src, dst, frame); });
  }
  transport->Reset();
  transport->set_timing(true);
  Stopwatch probes;
  engine->Run();
  double wall_ns = probes.Seconds() * 1e9;
  transport->set_timing(false);
  double spans_ns = static_cast<double>(transport->Snapshot().TotalSelfNs());
  // Each probe is two events: the send and the delivery.
  episode->delivery_ns =
      (wall_ns - spans_ns) / static_cast<double>(count) - 2 * episode->event_ns;
  for (sim::NodeId node : to) {
    transport->UnregisterPort(node, kProbePort);
  }
}

// One world: registration, the split, the client population, the crowd.
Episode RunEpisode(const PlanetSize& size, const Inputs& in, size_t shards, bool timing,
                   bool calibrate, WorkloadResult* result) {
  TrimHeap();
  Episode episode;
  PortMeter ports;
  Stopwatch setup;

  sim::UniformWorld world =
      sim::BuildUniformWorld({4, 4}, static_cast<int>(size.clients / kCountries));
  sim::NetworkOptions net_options;
  // Any cross-shard message climbs at least one level, so the level-1
  // latency bounds every cross-shard delivery from below.
  auto engine = std::make_unique<sim::ShardedSimulator>(
      shards, static_cast<sim::SimTime>(net_options.profile.LatencyAt(1)));
  std::map<sim::DomainId, size_t> continent_index;
  auto assign_node = [&](sim::NodeId node) {
    sim::DomainId d = world.topology.NodeDomain(node);
    while (world.topology.DomainDepth(d) > 1) {
      d = world.topology.DomainParent(d);
    }
    size_t index = continent_index.emplace(d, continent_index.size()).first->second;
    engine->AssignNode(node, index % shards);
  };
  for (sim::NodeId node = 0; node < world.topology.num_nodes(); ++node) {
    assign_node(node);
  }
  sim::Network network(engine.get(), &world.topology, net_options);
  sim::PlainTransport plain(&network);
  // Only a timed episode goes through the decorator; an untraced one runs on
  // the plain transport with nothing of the benchmark's in its path.
  std::unique_ptr<LayerTransport> layers;
  sim::Transport* transport = &plain;
  if (timing) {
    layers = std::make_unique<LayerTransport>(&plain, &world.topology);
    transport = layers.get();
  }

  gls::GlsDeploymentOptions options;
  options.node_options.store_capacity = kStoreCapacity;
  options.node_options.service_time = kServiceTime;
  gls::GlsDeployment deployment(transport, &world.topology, nullptr, options,
                                assign_node);

  // Registration: each country's first host batch-inserts its slice.
  size_t hosts_per_country = world.hosts.size() / kCountries;
  std::atomic<uint64_t> insert_failures{0};
  std::atomic<uint64_t> batches_done{0};
  uint64_t batches = 0;
  std::vector<std::shared_ptr<gls::GlsClient>> registrars;
  std::vector<sim::NodeId> registrar_host;
  for (size_t c = 0; c < kCountries; ++c) {
    sim::NodeId host = world.hosts[c * hosts_per_country];
    registrar_host.push_back(host);
    auto client = std::make_shared<gls::GlsClient>(transport, host,
                                                   deployment.LeafDirectoryFor(host));
    registrars.push_back(client);
    size_t mine = (size.oids + kCountries - 1 - c) / kCountries;
    for (size_t begin = 0; begin < mine; begin += kBatch) {
      size_t end = std::min(begin + kBatch, mine);
      ++batches;
      // Staggered so the in-flight window stays bounded.
      engine->ScheduleAtForNode(host, 1 + (begin / kBatch) * 10 * sim::kMillisecond,
                                [&, client, host, c, begin, end] {
                                  std::vector<std::pair<gls::ObjectId, gls::ContactAddress>>
                                      items;
                                  items.reserve(end - begin);
                                  for (size_t k = begin; k < end; ++k) {
                                    items.emplace_back(
                                        in.oids[c + kCountries * k],
                                        gls::ContactAddress{{host, sim::kPortGos},
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
  engine->Run();
  registrars.clear();
  if (insert_failures > 0 || batches_done != batches) {
    result->Violation("registration incomplete: " + std::to_string(insert_failures.load()) +
                      " batches failed");
  }
  // The root holds a pointer per OID; it crosses a quarter of the space.
  int splits = deployment.SplitOverloadedNodes(size.oids / 4);
  if (splits != 1) {
    result->Violation("expected one root split, got " + std::to_string(splits));
  }
  std::vector<std::unique_ptr<gls::GlsClient>> clients;
  clients.reserve(size.clients);
  for (size_t j = 0; j < size.clients; ++j) {
    sim::NodeId host = world.hosts[j];
    auto client = std::make_unique<gls::GlsClient>(transport, host,
                                                   deployment.LeafDirectoryFor(host));
    clients.push_back(std::move(client));
  }
  episode.setup_s = setup.Seconds();
  ports.Sample();

  // The crowd, from now on (setup advanced the virtual clock). Callbacks run
  // on shard threads; each writes only its own slot.
  sim::SimTime start = engine->Now() + 1;
  size_t n = in.at.size();
  std::vector<double> latency(n, -1);
  std::vector<uint8_t> wrong(n, 0);
  auto lookup = [&](size_t j, gls::GlsClient* client, sim::SimTime due) {
    uint32_t k = in.oid[j];
    client->Lookup(in.oids[k], [&, j, due, k](Result<gls::LookupResult> r) {
      if (!r.ok() || r->addresses.empty()) {
        return;  // lost: counted below
      }
      gls::ContactAddress expected{{registrar_host[k % kCountries], sim::kPortGos},
                                   1,
                                   gls::ReplicaRole::kMaster};
      if (std::find(r->addresses.begin(), r->addresses.end(), expected) ==
          r->addresses.end()) {
        wrong[j] = 1;
      }
      latency[j] = sim::ToMillis(engine->Now() - due);
    });
  };
  for (size_t j = 0; j < n; ++j) {
    sim::NodeId host = world.hosts[in.client[j]];
    gls::GlsClient* client = clients[in.client[j]].get();
    sim::SimTime due = start + in.at[j];
    engine->ScheduleAtForNode(host, due, [&, j, client, due] {
      if (layers == nullptr) {
        lookup(j, client, due);
        return;
      }
      layers->Measure(HostLayer::kLoad, [&] { lookup(j, client, due); });
    });
  }
  if (layers != nullptr) {
    layers->Reset();
    layers->set_timing(true);
  }
  uint64_t events_before = engine->executed_events();
  uint64_t windows_before = engine->windows_run();
  uint64_t parallel_before = engine->parallel_windows();
  uint64_t allocs_before = AllocationCount();
  Stopwatch crowd;
  engine->Run();
  episode.crowd_s = crowd.Seconds();
  episode.allocs = AllocationCount() - allocs_before;
  episode.events = engine->executed_events() - events_before;
  episode.windows = engine->windows_run() - windows_before;
  episode.parallel_windows = engine->parallel_windows() - parallel_before;
  if (layers != nullptr) {
    layers->set_timing(false);
    episode.ledger = layers->Snapshot();
  }
  ports.Sample();
  episode.ports = ports.used();

  for (size_t j = 0; j < n; ++j) {
    if (wrong[j] != 0) {
      result->Violation("lookup resolved to an address its registrar never inserted");
    } else if (latency[j] < 0) {
      ++episode.failures;
    } else {
      episode.latency_ms.push_back(latency[j]);
      episode.repeat.push_back(in.repeat[j]);
      episode.within_slo += latency[j] <= kSloMs ? 1 : 0;
    }
  }
  if (episode.ports >= PortMeter::kRange) {
    result->Violation("episode used " + std::to_string(episode.ports) +
                      " ephemeral ports; the port counter wrapped onto live ports");
  }
  if (calibrate && layers != nullptr) {
    std::vector<sim::NodeId> directory_hosts;
    for (const auto& subnode : deployment.subnodes()) {
      directory_hosts.push_back(subnode->host());
    }
    CalibrateOutsideSpans(engine.get(), layers.get(), world.hosts, directory_hosts, n,
                          &episode);
  }
  clients.clear();
  return episode;
}

double Ops(const Episode& e) {
  return static_cast<double>(std::max<size_t>(e.latency_ms.size(), 1));
}

void ReportLayers(const PlanetSize& size, const Inputs& in, WorkloadResult* result) {
  LayerReport report;
  // A process's first episode runs on a cold heap; it only warms up.
  RunEpisode(size, in, kShards, false, false, result);
  Episode plain = RunEpisode(size, in, kShards, false, false, result);
  Episode traced = RunEpisode(size, in, kShards, true, false, result);
  Episode single = RunEpisode(size, in, 1, true, true, result);
  for (const Episode* e : {&plain, &traced, &single}) {
    result->attempted += in.at.size();
    result->failed += e->failures;
  }
  // Engine counters and host time from the untraced episode; frame counts
  // from the traced one, which replays the same lookups.
  double ops = Ops(plain);
  const HostLedger& frames = traced.ledger;
  double traced_ops = Ops(traced);
  report.Set("sim.events_per_op", static_cast<double>(plain.events) / ops);
  report.Set("sim.host_ns_per_event",
             plain.crowd_s * 1e9 / static_cast<double>(std::max<uint64_t>(plain.events, 1)));
  report.Set("sim.frames_per_op", static_cast<double>(frames.TotalFrames()) / traced_ops);
  report.Set("sim.wan_frames_per_op",
             static_cast<double>(frames.wan_frames) / traced_ops);
  report.Set("sim.windows", static_cast<double>(plain.windows));
  report.Set("sim.parallel_windows", static_cast<double>(plain.parallel_windows));
  report.Set("sim.parallel_window_ratio",
             static_cast<double>(plain.parallel_windows) /
                 static_cast<double>(std::max<uint64_t>(plain.windows, 1)));
  report.Set("sim.shard_speedup", single.crowd_s / traced.crowd_s);

  // Cold: an OID's first lookup in the episode (its entry may sit in a cold
  // store); warm: a repeat.
  std::vector<double> cold;
  std::vector<double> warm;
  for (size_t i = 0; i < plain.latency_ms.size(); ++i) {
    (plain.repeat[i] != 0 ? warm : cold).push_back(plain.latency_ms[i]);
  }
  report.Set("gls.cold_ms", Mean(cold));
  report.Set("gls.warm_ms", Mean(warm));
  auto gls = static_cast<size_t>(Layer::kGls);
  report.Set("gls.frames_per_lookup",
             static_cast<double>(frames.frames[gls]) / traced_ops);
  auto host_gls = static_cast<size_t>(HostLayer::kGls);
  auto host_net = static_cast<size_t>(HostLayer::kNet);
  report.Set("gls.host_us_per_request",
             static_cast<double>(traced.ledger.self_ns[host_gls]) / 1000.0 /
                 static_cast<double>(std::max<uint64_t>(traced.ledger.calls[host_gls], 1)));
  report.Set("net.frames_per_op", static_cast<double>(frames.TotalFrames()) / traced_ops);
  report.Set("net.bytes_per_op", static_cast<double>(frames.TotalBytes()) / traced_ops);
  report.Set("net.allocs_per_op", static_cast<double>(plain.allocs) / ops);
  report.Set("net.send_ns_per_frame",
             static_cast<double>(traced.ledger.self_ns[host_net]) /
                 static_cast<double>(std::max<uint64_t>(traced.ledger.calls[host_net], 1)));
  report.Set("trace.overhead_ratio",
             (Ops(traced) / traced.crowd_s) / (Ops(plain) / plain.crowd_s));

  // Host attribution on the 1-shard rerun, where one thread does everything:
  // the timed spans, plus the calibrated cost of each engine event and each
  // network delivery, should explain the crowd's wall time.
  double engine_ns = single.event_ns * static_cast<double>(single.events) +
                     single.delivery_ns * static_cast<double>(single.ledger.TotalFrames());
  double explained_ns = static_cast<double>(single.ledger.TotalSelfNs()) + engine_ns;
  double wall_ns = single.crowd_s * 1e9;
  double error = std::abs(explained_ns - wall_ns) / wall_ns;
  report.Set("trace.host_sum_error", error);
  std::printf("  host attribution (1 shard, %.3f s):", single.crowd_s);
  for (size_t l = 0; l < kHostLayerCount; ++l) {
    if (single.ledger.self_ns[l] > 0) {
      std::printf(" %s %.3f s", HostLayerName(static_cast<HostLayer>(l)),
                  static_cast<double>(single.ledger.self_ns[l]) * 1e-9);
    }
  }
  std::printf(" engine+delivery %.3f s (%.0f ns/event, %.0f ns/delivery); sum error %.1f%%%s\n",
              engine_ns * 1e-9, single.event_ns, single.delivery_ns, error * 100,
              error <= kHostSumLimit ? "" : " OVER THE 10% LIMIT");
  std::printf("  shard speedup %.2fx over %" PRIu64 " windows (%" PRIu64 " parallel)\n",
              single.crowd_s / traced.crowd_s, traced.windows, traced.parallel_windows);
  report.AppendTo(result);
  result->Add("wan_bytes_per_op", static_cast<double>(frames.wan_bytes) / traced_ops,
              "bytes");
}

}  // namespace

WorkloadResult RunPlanetLookup(const RunOptions& options) {
  WorkloadResult result;
  result.workload = "planet_lookup";
  PlanetSize size = SizeFor(options);
  if (options.trace) {
    ReportLayers(size, MakeInputs(size, options.seed), &result);
    return result;
  }
  EndToEnd e2e;
  size_t count = EpisodeCount(options, /*host_s_per_episode=*/2.6);
  for (size_t i = 0; i < count; ++i) {
    Inputs in = MakeInputs(size, options.seed * 1000 + i);
    Episode e = RunEpisode(size, in, kShards, false, false, &result);
    std::printf("  episode %zu: setup %.3f s, crowd %.3f s, %zu ok, %" PRIu64
                " failed, %" PRIu64 " ports\n",
                i, e.setup_s, e.crowd_s, e.latency_ms.size(), e.failures, e.ports);
    e2e.setup_s.push_back(e.setup_s);
    e2e.goodput.push_back(static_cast<double>(e.latency_ms.size()) / e.crowd_s);
    e2e.read_ms.insert(e2e.read_ms.end(), e.latency_ms.begin(), e.latency_ms.end());
    e2e.within_slo += e.within_slo;
    result.attempted += in.at.size();
    result.failed += e.failures;
  }
  e2e.AppendTo(&result);
  return result;
}

}  // namespace globe::benchmark
