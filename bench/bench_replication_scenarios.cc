// E3 — per-object replication scenarios vs. one-size-fits-all (paper §3.1).
//
// Claim: "if we assign a replication scenario to each Web page that reflects that
// page's individual usage and update patterns, we get significant improvements ...
// less wide-area network traffic was generated and the response time for the
// end-user improved" [Pierre et al. 1999]. The GDN generalizes this: replication
// scenarios are chosen per package DSO.
//
// Workload: 40 packages with Zipf(1.0) popularity and bimodal update rates (20% of
// packages receive frequent updates, chosen independently of popularity). 400
// downloads from users across 6 countries, with updates interleaved. The same
// deterministic workload runs under four scenario policies:
//   central      — every package a single master in country 0
//   replicate-all— master + slave replica in every country (eager state push)
//   cache-all    — cache/invalidate protocol, HTTPD caches fill on demand
//   per-object   — popular+stable packages replicated everywhere; popular+volatile
//                  packages cached with invalidation; unpopular packages central
//
// Expected shape: each global policy loses somewhere — central on read latency and
// read WAN, replicate-all on update WAN, cache-all in between — while the per-object
// assignment matches the best policy in every column (the paper's Pierre-et-al
// finding).

// A second table measures GLS-driven master fail-over (dso::ReplicaGroup): a
// master/slave package loses its master to a crash, the slave detects the
// missed lease renewals and races gls.claim_master; the table reports the
// time-to-new-master and the acked-write floor (writes lost must be 0) across
// lease-timing configurations.
//
// A third table exercises the *online* controller (src/ctl) on a viral
// package: one object starts central (client/server, all reads cross the WAN
// to country 0), then a flash crowd arrives from every country. Three
// strategies replay the identical trace:
//   static-central — the object never moves (what you get with no controller)
//   static-oracle  — replicated at every country from t=0 (knows the future)
//   adaptive       — ctl::ReplicationController watches the access telemetry
//                    and migrates the live object mid-trace
// The controller should land within a modest factor of the oracle on hot-phase
// read latency and total WAN bytes while acked writes survive every migration
// (writes lost must stay 0).

#include <numeric>

#include "bench/bench_util.h"
#include "src/gdn/world.h"
#include "src/gls/deploy.h"
#include "src/gos/object_server.h"
#include "src/sim/backend.h"

using namespace globe;
using bench::Fmt;

namespace {

constexpr int kPackages = 40;
constexpr int kDownloads = 400;
constexpr double kZipfExponent = 1.0;
constexpr double kVolatileFraction = 0.20;
constexpr int kUpdateEveryNDownloads = 8;  // one update per 8 downloads

struct Workload {
  struct Op {
    bool is_update = false;
    int package = 0;
    size_t user_index = 0;  // for downloads
  };
  std::vector<Op> ops;
  std::vector<bool> is_volatile;   // per package
  std::vector<size_t> popularity;  // per package: times downloaded
  std::vector<uint32_t> sizes;     // per package payload size
};

Workload BuildWorkload(size_t num_users, uint64_t seed) {
  Workload workload;
  Rng rng(seed);
  ZipfSampler zipf(kPackages, kZipfExponent);

  workload.is_volatile.resize(kPackages);
  workload.sizes.resize(kPackages);
  for (int i = 0; i < kPackages; ++i) {
    workload.is_volatile[i] = rng.Bernoulli(kVolatileFraction);
    workload.sizes[i] = 20000 + static_cast<uint32_t>(rng.UniformInt(60000));
  }
  workload.popularity.assign(kPackages, 0);

  Rng update_rng(seed + 1);
  for (int i = 0; i < kDownloads; ++i) {
    Workload::Op op;
    op.package = static_cast<int>(zipf.Sample(&rng));
    op.user_index = static_cast<size_t>(rng.UniformInt(num_users));
    workload.popularity[op.package]++;
    workload.ops.push_back(op);

    if ((i + 1) % kUpdateEveryNDownloads == 0) {
      // Updates hit volatile packages: pick until one is volatile (bounded tries).
      Workload::Op update;
      update.is_update = true;
      update.package = static_cast<int>(update_rng.UniformInt(kPackages));
      for (int tries = 0; tries < 20 && !workload.is_volatile[update.package]; ++tries) {
        update.package = static_cast<int>(update_rng.UniformInt(kPackages));
      }
      workload.ops.push_back(update);
    }
  }
  return workload;
}

enum class Policy { kCentral, kReplicateAll, kCacheAll, kPerObject };

const char* PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kCentral:
      return "central";
    case Policy::kReplicateAll:
      return "replicate-all";
    case Policy::kCacheAll:
      return "cache-all";
    case Policy::kPerObject:
      return "per-object";
  }
  return "?";
}

struct ScenarioResult {
  double mean_read_ms = 0;
  uint64_t read_wan_bytes = 0;
  uint64_t update_wan_bytes = 0;
  uint64_t total_wan_bytes = 0;
  int failures = 0;
};

ScenarioResult RunScenario(Policy policy, const Workload& workload) {
  gdn::GdnWorldConfig config;
  config.fanouts = {3, 2, 2};  // 6 countries
  config.user_hosts_per_site = 2;
  gdn::GdnWorld world(config);

  std::vector<size_t> all_other_countries;
  for (size_t c = 1; c < world.num_countries(); ++c) {
    all_other_countries.push_back(c);
  }

  // Publish every package under the policy.
  for (int p = 0; p < kPackages; ++p) {
    std::string name = "/apps/bench/pkg" + std::to_string(p);
    std::map<std::string, Bytes> files = {{"data", Bytes(workload.sizes[p], 0x33)}};

    gls::ProtocolId protocol = dso::kProtoMasterSlave;
    std::vector<size_t> replicas;
    switch (policy) {
      case Policy::kCentral:
        break;
      case Policy::kReplicateAll:
        replicas = all_other_countries;
        break;
      case Policy::kCacheAll:
        protocol = dso::kProtoCacheInval;
        break;
      case Policy::kPerObject: {
        // The adaptive assignment: popularity and volatility known from the trace
        // (the paper's study likewise assigned scenarios from observed patterns).
        bool popular = workload.popularity[p] * kPackages >= 2 * kDownloads / 3;
        if (popular && !workload.is_volatile[p]) {
          replicas = all_other_countries;  // replicate widely
        } else if (popular && workload.is_volatile[p]) {
          protocol = dso::kProtoCacheInval;  // cache + invalidate
        }
        // unpopular: stay central
        break;
      }
    }
    auto oid = world.PublishPackage(name, files, protocol, 0, replicas);
    if (!oid.ok()) {
      std::printf("publish %s failed: %s\n", name.c_str(),
                  oid.status().ToString().c_str());
      std::exit(1);
    }
  }

  // Replay the workload; separate read and update traffic.
  world.network().mutable_stats()->Clear();
  ScenarioResult result;
  double total_read_ms = 0;
  int reads = 0;
  uint64_t wan_after_reads = 0;

  Rng content_rng(99);
  for (const auto& op : workload.ops) {
    std::string name = "/apps/bench/pkg" + std::to_string(op.package);
    if (op.is_update) {
      uint64_t before = world.network().stats().BytesAtOrAbove(2);
      Status status = Unavailable("pending");
      world.moderator()->AddFile(name, "data",
                                 Bytes(workload.sizes[op.package], 0x44),
                                 [&](Status s) { status = s; });
      world.Run();
      if (!status.ok()) {
        ++result.failures;
      }
      result.update_wan_bytes += world.network().stats().BytesAtOrAbove(2) - before;
    } else {
      sim::NodeId user = world.user_hosts()[op.user_index % world.user_hosts().size()];
      uint64_t before = world.network().stats().BytesAtOrAbove(2);
      auto content = world.DownloadFile(user, name, "data");
      if (!content.ok()) {
        ++result.failures;
        continue;
      }
      total_read_ms += sim::ToMillis(world.last_op_duration());
      ++reads;
      wan_after_reads += world.network().stats().BytesAtOrAbove(2) - before;
    }
  }
  result.mean_read_ms = reads > 0 ? total_read_ms / reads : 0;
  result.read_wan_bytes = wan_after_reads;
  result.total_wan_bytes = world.network().stats().BytesAtOrAbove(2);
  return result;
}

// ------------------------------------------------------------- viral object

enum class ViralMode { kStaticCentral, kStaticOracle, kAdaptive };

const char* ViralModeName(ViralMode mode) {
  switch (mode) {
    case ViralMode::kStaticCentral:
      return "static-central";
    case ViralMode::kStaticOracle:
      return "static-oracle";
    case ViralMode::kAdaptive:
      return "adaptive";
  }
  return "?";
}

struct ViralResult {
  double hot_read_ms = 0;
  uint64_t hot_read_wan = 0;
  uint64_t total_wan = 0;
  uint64_t migrations = 0;
  size_t acked_writes = 0;
  size_t writes_lost = 0;
};

constexpr int kViralWarmReads = 30;
constexpr int kViralHotReads = 240;
constexpr int kViralWriteEvery = 20;     // one write per N hot reads
constexpr int kViralEvaluateEvery = 12;  // controller ticks per N hot reads

ViralResult RunViral(ViralMode mode) {
  gdn::GdnWorldConfig config;
  config.fanouts = {3, 2, 2};  // 6 countries
  config.user_hosts_per_site = 2;
  gdn::GdnWorld world(config);

  std::vector<size_t> all_other_countries;
  for (size_t c = 1; c < world.num_countries(); ++c) {
    all_other_countries.push_back(c);
  }
  std::vector<std::vector<sim::NodeId>> users_by_country(world.num_countries());
  for (sim::NodeId user : world.user_hosts()) {
    int country = world.services().CountryOf(user);
    if (country >= 0) {
      users_by_country[static_cast<size_t>(country)].push_back(user);
    }
  }

  const std::string name = "/apps/bench/viral";
  gls::ProtocolId protocol = dso::kProtoClientServer;
  std::vector<size_t> replicas;
  if (mode == ViralMode::kStaticOracle) {
    // The oracle knows the flash crowd is coming: cache/invalidate caches at
    // every country from the start (what the controller converges to for a
    // read-heavy object with occasional updates).
    protocol = dso::kProtoCacheInval;
    replicas = all_other_countries;
  }
  auto oid = world.PublishPackage(name, {{"data", Bytes(40000, 0x55)}}, protocol,
                                  /*master_country=*/0, replicas);
  if (!oid.ok()) {
    std::printf("publish %s failed: %s\n", name.c_str(),
                oid.status().ToString().c_str());
    std::exit(1);
  }
  if (mode == ViralMode::kAdaptive) {
    world.EnableAdaptiveReplication();
  }

  world.network().mutable_stats()->Clear();
  ViralResult result;
  std::vector<std::pair<std::string, Bytes>> acked;
  int write_index = 0;

  auto do_write = [&] {
    std::string path = Fmt("w%d", write_index);
    Bytes content(2000, static_cast<uint8_t>(0x60 + write_index));
    ++write_index;
    Status status = Unavailable("pending");
    world.moderator()->AddFile(name, path, content, [&](Status s) { status = s; });
    world.Run();
    if (status.ok()) {
      acked.emplace_back(path, std::move(content));
    }
  };
  auto do_read = [&](size_t country, size_t user_index) -> double {
    const auto& users = users_by_country[country];
    sim::NodeId user = users[user_index % users.size()];
    auto content = world.DownloadFile(user, name, "data");
    return content.ok() ? sim::ToMillis(world.last_op_duration()) : -1.0;
  };

  // Warm phase: home-country traffic only; the controller (if any) must leave
  // the object central.
  for (int i = 0; i < kViralWarmReads; ++i) {
    do_read(0, static_cast<size_t>(i));
    if ((i + 1) % 10 == 0) {
      do_write();
    }
    if (mode == ViralMode::kAdaptive && (i + 1) % kViralEvaluateEvery == 0) {
      world.EvaluateAdaptiveNow();
    }
  }

  // Hot phase: the flash crowd — reads round-robin over every country.
  double hot_ms = 0;
  int hot_reads = 0;
  uint64_t hot_wan_before = world.network().stats().BytesAtOrAbove(2);
  uint64_t hot_write_wan = 0;
  for (int i = 0; i < kViralHotReads; ++i) {
    size_t country = static_cast<size_t>(i) % world.num_countries();
    double ms = do_read(country, static_cast<size_t>(i) / world.num_countries());
    if (ms >= 0) {
      hot_ms += ms;
      ++hot_reads;
    }
    if ((i + 1) % kViralWriteEvery == 0) {
      uint64_t before = world.network().stats().BytesAtOrAbove(2);
      do_write();
      hot_write_wan += world.network().stats().BytesAtOrAbove(2) - before;
    }
    if (mode == ViralMode::kAdaptive && (i + 1) % kViralEvaluateEvery == 0) {
      world.EvaluateAdaptiveNow();
    }
  }
  result.hot_read_ms = hot_reads > 0 ? hot_ms / hot_reads : -1;
  result.hot_read_wan =
      world.network().stats().BytesAtOrAbove(2) - hot_wan_before - hot_write_wan;
  result.total_wan = world.network().stats().BytesAtOrAbove(2);
  result.acked_writes = acked.size();
  if (mode == ViralMode::kAdaptive && world.controller() != nullptr) {
    result.migrations = world.controller()->stats().migrations_succeeded;
  }

  // Acked-write floor: every acknowledged write must be readable, bytes
  // intact, after all migrations (verification traffic is not counted).
  for (const auto& [path, content] : acked) {
    auto read_back = world.DownloadFile(users_by_country[0][0], name, path);
    if (!read_back.ok() || *read_back != content) {
      ++result.writes_lost;
    }
  }
  return result;
}

// ------------------------------------------------------------- fail-over

// Minimal KV semantics for the fail-over runs: presence of a key proves the
// write survived the election.
struct KvEntry {
  std::string key;
  std::string value;

  static constexpr auto kWireFields = std::tuple(&KvEntry::key, &KvEntry::value);
};

constexpr dso::Method<KvEntry, sim::EmptyMessage> kKvPut{"put", dso::Access::kWrite};

class KvObject : public dso::SemanticsObject {
 public:
  static constexpr uint16_t kTypeId = 31;

  KvObject() {
    Handle(kKvPut, [this](KvEntry entry) -> Status {
      entries_[entry.key] = std::move(entry.value);
      return OkStatus();
    });
  }

  Bytes GetState() const override {
    ByteWriter w;
    w.WriteVarint(entries_.size());
    for (const auto& [key, value] : entries_) {
      w.WriteString(key);
      w.WriteString(value);
    }
    return w.Take();
  }

  Status SetState(ByteSpan state) override {
    ByteReader r(state);
    std::map<std::string, std::string> entries;
    ASSIGN_OR_RETURN(uint64_t count, r.ReadVarint());
    for (uint64_t i = 0; i < count; ++i) {
      ASSIGN_OR_RETURN(std::string key, r.ReadString());
      ASSIGN_OR_RETURN(std::string value, r.ReadString());
      entries[key] = value;
    }
    entries_ = std::move(entries);
    return OkStatus();
  }

  std::unique_ptr<dso::SemanticsObject> CloneEmpty() const override {
    return std::make_unique<KvObject>();
  }
  uint16_t type_id() const override { return kTypeId; }

  const std::map<std::string, std::string>& entries() const { return entries_; }

 private:
  std::map<std::string, std::string> entries_;
};

struct FailoverResult {
  double time_to_master_ms = -1;  // -1: no new master was elected
  double mean_write_ms = 0;       // mean client-visible write latency (acked)
  size_t acked_before_crash = 0;
  size_t writes_lost = 0;  // acked writes missing after fail-over (floor!)
  uint64_t claims = 0;     // claim attempts arbitrated at the GLS root
  bool post_failover_write_ok = false;
};

// `quorum`: run the group in quorum-acknowledged mode — the master acks the
// client only once a majority of the current-epoch membership durably holds
// the write. Lease-only mode acks from the master alone (faster writes, but
// the documented loss window: a write acked between pushes can die with the
// master). The fail-over table contrasts both modes at identical lease
// timings.
FailoverResult RunFailover(sim::SimTime lease_interval, sim::SimTime lease_timeout,
                           bool quorum) {
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({2, 2}, 2);
  sim::NetworkOptions network_options;
  network_options.rng_seed = 0xFA11;
  sim::Network network(&simulator, &world.topology, network_options);
  sim::PlainTransport transport(&network);
  gls::GlsDeploymentOptions deployment_options;
  deployment_options.node_options.enable_cache = true;
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr,
                                deployment_options);
  dso::ImplementationRepository repository;
  repository.RegisterSemantics(std::make_unique<KvObject>());
  gos::GosOptions gos_options;
  gos_options.enable_failover = true;
  gos_options.failover_lease_interval = lease_interval;
  gos_options.failover_lease_timeout = lease_timeout;
  gos_options.failover_quorum = quorum;
  gos::ObjectServer master_gos(&transport, world.hosts[0], &repository,
                               deployment.LeafDirectoryFor(world.hosts[0]), nullptr,
                               gos_options);
  gos::ObjectServer slave_gos(&transport, world.hosts[6], &repository,
                              deployment.LeafDirectoryFor(world.hosts[6]), nullptr,
                              gos_options);

  auto run_for = [&](sim::SimTime d) { simulator.RunUntil(simulator.Now() + d); };

  gls::ObjectId oid;
  gls::ContactAddress master_address;
  bool created = false;
  master_gos.CreateFirstReplica(
      dso::kProtoMasterSlave, KvObject::kTypeId,
      [&](Result<std::pair<gls::ObjectId, gls::ContactAddress>> r) {
        if (r.ok()) {
          oid = r->first;
          master_address = r->second;
          created = true;
        }
      });
  run_for(10 * sim::kSecond);
  gls::ContactAddress slave_address;
  slave_gos.CreateReplica(oid, KvObject::kTypeId, gls::ReplicaRole::kSlave,
                          [&](Result<std::pair<gls::ObjectId, gls::ContactAddress>> r) {
                            if (r.ok()) {
                              slave_address = r->second;
                            }
                          });
  run_for(10 * sim::kSecond);
  if (!created) {
    return {};
  }

  // 20 writes, each acked (pushed to the slave) before the crash.
  sim::Channel client(&transport, world.hosts[3]);
  FailoverResult result;
  std::vector<std::string> acked_keys;
  double total_write_ms = 0;
  for (int i = 0; i < 20; ++i) {
    std::string key = Fmt("w%d", i);
    bool ok = false;
    sim::SimTime started = simulator.Now();
    sim::SimTime acked_at = started;
    dso::kDsoInvoke.Call(&client, master_address.endpoint, kKvPut.Marshal({key, "v"}),
                         [&](Result<Bytes> r) {
                           ok = r.ok();
                           acked_at = simulator.Now();
                         },
                         sim::WriteCallOptions());
    run_for(2 * sim::kSecond);
    if (ok) {
      acked_keys.push_back(key);
      total_write_ms += sim::ToMillis(acked_at - started);
    }
  }
  result.acked_before_crash = acked_keys.size();
  result.mean_write_ms =
      acked_keys.empty() ? 0 : total_write_ms / static_cast<double>(acked_keys.size());

  // Crash; wait out detection + election.
  sim::SimTime crash_at = simulator.Now();
  network.CrashNode(master_address.endpoint.node);
  run_for(3 * lease_timeout + 10 * sim::kSecond);

  dso::ReplicationObject* new_master = slave_gos.FindReplica(oid);
  if (new_master == nullptr || new_master->group() == nullptr ||
      new_master->contact_address()->role != gls::ReplicaRole::kMaster) {
    return result;
  }
  result.time_to_master_ms =
      sim::ToMillis(new_master->group()->stats().elected_at - crash_at);
  result.claims = deployment.TotalStats().master_claims;

  // Acked floor: every acknowledged write must be present on the new master.
  KvObject survived;
  (void)survived.SetState(new_master->semantics()->GetState());
  for (const std::string& key : acked_keys) {
    if (survived.entries().count(key) == 0) {
      ++result.writes_lost;
    }
  }

  // The elected master serves writes.
  dso::kDsoInvoke.Call(&client, slave_address.endpoint, kKvPut.Marshal({"post", "v"}),
                       [&](Result<Bytes> r) { result.post_failover_write_ok = r.ok(); },
                       sim::WriteCallOptions());
  run_for(5 * sim::kSecond);
  return result;
}

}  // namespace

int main() {
  bench::Title("E3 bench_replication_scenarios",
               "per-object replication vs. global policies (paper 3.1 / Pierre et al.)");
  bench::Note("%d packages, Zipf(%.1f) popularity, %.0f%% volatile, %d downloads, "
              "1 update per %d downloads, 6 countries",
              kPackages, kZipfExponent, kVolatileFraction * 100, kDownloads,
              kUpdateEveryNDownloads);

  // Workload is built once so every policy replays the identical op sequence.
  // User count equals the world the scenarios construct (3x2x2 sites x 2 hosts).
  Workload workload = BuildWorkload(/*num_users=*/24, /*seed=*/0xe3);

  bench::Table table({"policy", "mean read", "read WAN", "update WAN", "total WAN",
                      "failures"});
  for (Policy policy : {Policy::kCentral, Policy::kReplicateAll, Policy::kCacheAll,
                        Policy::kPerObject}) {
    ScenarioResult r = RunScenario(policy, workload);
    table.Row({PolicyName(policy), Fmt("%.1f ms", r.mean_read_ms),
               FormatBytes(r.read_wan_bytes), FormatBytes(r.update_wan_bytes),
               FormatBytes(r.total_wan_bytes), Fmt("%d", r.failures)});
  }

  bench::Note("");
  bench::Note("expected shape (paper): 'central' pays on read latency and read WAN;");
  bench::Note("'replicate-all' pays update WAN for replicas nobody reads;");
  bench::Note("'per-object' assignment approaches the best column of every global");
  bench::Note("policy simultaneously - less WAN traffic AND better response time.");

  bench::Note("");
  bench::Note("viral object (online controller, src/ctl): one package starts central");
  bench::Note("in country 0, then a flash crowd reads it from all 6 countries.");
  bench::Note("'adaptive' runs ctl::ReplicationController against live telemetry and");
  bench::Note("migrates the object mid-trace; 'static-oracle' knew the future at");
  bench::Note("publish time. Acked writes must survive every migration (lost = 0).");
  bench::Table viral({"strategy", "hot mean read", "hot read WAN", "total WAN",
                      "migrations", "acked writes", "writes lost"},
                     /*column_width=*/15);
  for (ViralMode mode : {ViralMode::kStaticCentral, ViralMode::kStaticOracle,
                         ViralMode::kAdaptive}) {
    ViralResult r = RunViral(mode);
    viral.Row({ViralModeName(mode), Fmt("%.1f ms", r.hot_read_ms),
               FormatBytes(r.hot_read_wan), FormatBytes(r.total_wan),
               Fmt("%llu", static_cast<unsigned long long>(r.migrations)),
               Fmt("%zu", r.acked_writes), Fmt("%zu", r.writes_lost)});
  }

  bench::Note("");
  bench::Note("master fail-over (GLS-driven): master/slave package, master crashes");
  bench::Note("after 20 acked writes; the slave detects missed lease renewals and");
  bench::Note("races gls.claim_master. 'writes lost' counts acked writes missing");
  bench::Note("after the election - the acked-write floor requires it to stay 0.");
  bench::Note("'lease-only' acks from the master alone; 'quorum-ack' waits for a");
  bench::Note("majority of the membership to hold the write before acking, paying");
  bench::Note("one extra round-trip per write to close the loss window.");
  bench::Table failover({"mode", "lease int/timeout", "mean write",
                         "time to new master", "acked writes", "writes lost",
                         "claims", "serves writes"},
                        /*column_width=*/19);
  struct TimingRow {
    sim::SimTime interval;
    sim::SimTime timeout;
  };
  for (bool quorum : {false, true}) {
    for (const TimingRow& timing :
         {TimingRow{1 * sim::kSecond, 3 * sim::kSecond},
          TimingRow{2 * sim::kSecond, 5 * sim::kSecond},
          TimingRow{4 * sim::kSecond, 10 * sim::kSecond}}) {
      FailoverResult r = RunFailover(timing.interval, timing.timeout, quorum);
      failover.Row({quorum ? "quorum-ack" : "lease-only",
                    Fmt("%.0fs/%.0fs", sim::ToSeconds(timing.interval),
                        sim::ToSeconds(timing.timeout)),
                    Fmt("%.1f ms", r.mean_write_ms),
                    r.time_to_master_ms < 0 ? "never" : Fmt("%.0f ms", r.time_to_master_ms),
                    Fmt("%zu", r.acked_before_crash), Fmt("%zu", r.writes_lost),
                    Fmt("%llu", static_cast<unsigned long long>(r.claims)),
                    r.post_failover_write_ok ? "yes" : "NO"});
    }
  }
  return 0;
}
