// flash_crowd and update_churn: the whole GDN read path (and, under churn,
// its write path) on a simulated GdnWorld.
//
// Both workloads build a fresh world per episode, publish a seeded package
// catalog through the moderator tool, then drive an open-loop Poisson stream
// of browser downloads (plus moderator AddFile writes under churn) through
// every user's nearest GDN-HTTPD. Latencies are virtual time from each op's
// scheduled arrival to its completion; goodput is host time.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "benchmark/workloads.h"
#include "src/gdn/world.h"
#include "src/util/rng.h"

namespace globe::benchmark {
namespace {

struct FileSpec {
  std::string path;
  size_t min_bytes = 0;
  size_t max_bytes = 0;
  uint32_t weight = 1;  // share of downloads that fetch this file
};

struct GdnSpec {
  std::string name;
  bool secure = false;  // Figure-4 secure channels and role checks
  size_t packages = 0;
  std::vector<FileSpec> files;
  double read_rate = 0;   // downloads per virtual second
  double write_rate = 0;  // moderator AddFile per virtual second
  double episode_s = 0;   // virtual seconds of arrivals per episode
  double read_slo_ms = 0;
  double write_slo_ms = 0;
  double host_s_per_episode = 1;  // see EpisodeCount
};

// The run's inputs, derived from the seed once and shared by every episode.
struct Catalog {
  std::vector<std::string> names;
  std::vector<std::vector<Bytes>> content;   // [package][file], as published
  std::vector<std::vector<std::string>> targets;  // [package][file] URL
  std::vector<uint32_t> rank_to_package;     // Zipf rank -> package; episodes reshuffle
  std::vector<uint32_t> file_pick;           // weighted file choice table
};

Catalog MakeCatalog(const GdnSpec& spec, uint64_t seed) {
  Catalog catalog;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x11);
  // File sizes spread evenly over [min, max] and dealt to packages in seeded
  // order: every seed publishes the same total bytes, on different packages.
  std::vector<std::vector<size_t>> size_rank(spec.files.size());
  for (auto& ranks : size_rank) {
    for (size_t p = 0; p < spec.packages; ++p) {
      ranks.push_back(p);
    }
    rng.Shuffle(&ranks);
  }
  for (size_t p = 0; p < spec.packages; ++p) {
    std::string name = "/apps/bench/pkg" + std::to_string(p);
    std::vector<Bytes> files;
    std::vector<std::string> targets;
    for (size_t f = 0; f < spec.files.size(); ++f) {
      const FileSpec& file = spec.files[f];
      size_t size = file.min_bytes + (file.max_bytes - file.min_bytes) * size_rank[f][p] /
                                         std::max<size_t>(spec.packages - 1, 1);
      files.push_back(rng.RandomBytes(size));
      targets.push_back(
          http::UrlEncode("/packages" + name + "/files/" + file.path));
    }
    catalog.names.push_back(std::move(name));
    catalog.content.push_back(std::move(files));
    catalog.targets.push_back(std::move(targets));
  }
  catalog.rank_to_package.resize(spec.packages);
  for (size_t p = 0; p < spec.packages; ++p) {
    catalog.rank_to_package[p] = static_cast<uint32_t>(p);
  }
  rng.Shuffle(&catalog.rank_to_package);
  for (size_t f = 0; f < spec.files.size(); ++f) {
    for (uint32_t w = 0; w < spec.files[f].weight; ++w) {
      catalog.file_pick.push_back(static_cast<uint32_t>(f));
    }
  }
  return catalog;
}

struct Op {
  sim::SimTime at = 0;
  uint32_t user = 0;
  uint32_t package = 0;
  uint32_t file = 0;
  bool write = false;
};

std::vector<Op> MakeOps(const GdnSpec& spec, const Catalog& catalog, size_t users,
                        uint64_t seed, double scale) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 0x22);
  ZipfSampler zipf(spec.packages, 1.0);
  // Each episode ranks the packages afresh. Which packages are popular (their
  // protocol, sizes and master sites) moves every number, so a run averages
  // over many popularity orders rather than hanging on one.
  std::vector<uint32_t> rank_to_package = catalog.rank_to_package;
  rng.Shuffle(&rank_to_package);
  double rate = spec.read_rate + spec.write_rate;
  double horizon = spec.episode_s * scale;
  std::vector<Op> ops;
  double t = 0;
  while (true) {
    t += rng.Exponential(rate);
    if (t >= horizon) {
      break;
    }
    Op op;
    op.at = static_cast<sim::SimTime>(t * 1e6);  // from the crowd's start
    op.write = rng.UniformDouble() * rate < spec.write_rate;
    op.package = rank_to_package[zipf.Sample(&rng)];
    op.user = static_cast<uint32_t>(rng.UniformInt(users));
    op.file = catalog.file_pick[rng.UniformInt(catalog.file_pick.size())];
    ops.push_back(op);
  }
  return ops;
}

// What one episode measured.
struct Episode {
  double setup_s = 0;
  double crowd_s = 0;  // host seconds of the crowd, verification excluded
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t failures = 0;
  uint64_t within_slo = 0;
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t ports = 0;

  uint64_t ok() const { return read_ms.size() + write_ms.size(); }
};

gdn::GdnWorldConfig WorldConfig(bool secure, uint64_t seed) {
  gdn::GdnWorldConfig config;
  config.fanouts = {4, 4, 2};
  config.user_hosts_per_site = 8;
  config.secure = secure;
  config.gls_cache = true;
  config.httpd.bind_as_replica = true;
  config.seed = seed;
  return config;
}

// Builds a world and publishes the catalog: even packages master/slave with
// two slaves on other continents, odd ones cache/invalidate (the HTTPDs
// become their caches on first bind).
std::unique_ptr<gdn::GdnWorld> BuildWorld(const GdnSpec& spec, const Catalog& catalog,
                                          bool secure, uint64_t seed,
                                          WorkloadResult* result) {
  auto world = std::make_unique<gdn::GdnWorld>(WorldConfig(secure, seed));
  size_t countries = world->num_countries();
  for (size_t p = 0; p < spec.packages; ++p) {
    std::map<std::string, Bytes> files;
    for (size_t f = 0; f < spec.files.size(); ++f) {
      files[spec.files[f].path] = catalog.content[p][f];
    }
    size_t master = p % countries;
    bool master_slave = p % 2 == 0;
    std::vector<size_t> replicas;
    if (master_slave) {
      replicas = {(master + 4) % countries, (master + 8) % countries};
    }
    auto oid = world->PublishPackage(
        catalog.names[p], files,
        master_slave ? dso::kProtoMasterSlave : dso::kProtoCacheInval, master, replicas);
    if (!oid.ok()) {
      result->Violation("publish " + catalog.names[p] + ": " + oid.status().ToString());
    }
  }
  return world;
}

bool SameBytes(const Bytes& a, ByteSpan b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

// One episode: fresh world, published catalog, the whole op stream, each op
// issued at its scheduled time. With a ledger every frame of the crowd is
// recorded; without one nothing but the engine's counters is watched.
Episode RunEpisode(const GdnSpec& spec, const Catalog& catalog, const RunOptions& options,
                   size_t index, bool secure, FrameLedger* ledger, WorkloadResult* result) {
  TrimHeap();
  Episode episode;
  PortMeter ports;
  Stopwatch setup;
  std::unique_ptr<gdn::GdnWorld> world =
      BuildWorld(spec, catalog, secure, options.seed + index, result);
  episode.setup_s = setup.Seconds();
  ports.Sample();

  sim::EventEngine& engine = world->simulator();
  const std::vector<sim::NodeId>& users = world->user_hosts();
  std::vector<std::unique_ptr<gdn::Browser>> browsers;
  for (sim::NodeId user : users) {
    browsers.push_back(world->MakeBrowser(user));
  }
  std::vector<Op> ops =
      MakeOps(spec, catalog, users.size(), options.seed * 1000 + index, options.scale);
  // Setup advanced the virtual clock; the crowd starts now.
  sim::SimTime start = engine.Now() + 1;
  for (Op& op : ops) {
    op.at += start;
  }

  // Under churn every write publishes a new, seeded version of the file; a
  // read is correct if it returns any version issued before it completed.
  std::vector<std::vector<Bytes>> versions(spec.packages);
  for (size_t p = 0; p < spec.packages; ++p) {
    versions[p].push_back(catalog.content[p][0]);
  }
  std::vector<size_t> issued(spec.packages, 1);
  std::vector<Bytes> write_payload(ops.size());
  {
    Rng rng(options.seed * 0x2545F4914F6CDD1DULL + index);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (ops[i].write) {
        write_payload[i] = rng.RandomBytes(catalog.content[ops[i].package][0].size());
      }
    }
  }

  uint64_t verify_ns = 0;
  size_t completed = 0;
  auto finish_read = [&](const Op& op, sim::SimTime due,
                         Result<http::HttpResponse> response) {
    ++completed;
    uint64_t start = NowNs();
    double ms = sim::ToMillis(engine.Now() - due);
    bool ok = false;
    if (response.ok() && response->status_code == 200) {
      if (spec.write_rate == 0) {
        ok = SameBytes(catalog.content[op.package][op.file], response->body);
      } else {
        const auto& known = versions[op.package];
        for (size_t v = 0; v < issued[op.package] && !ok; ++v) {
          ok = SameBytes(known[v], response->body);
        }
      }
      if (!ok) {
        result->Violation(catalog.names[op.package] + " served wrong bytes");
      }
    }
    if (ok) {
      episode.read_ms.push_back(ms);
      episode.within_slo += ms <= spec.read_slo_ms ? 1 : 0;
    } else {
      ++episode.failures;
    }
    verify_ns += NowNs() - start;
  };

  std::function<void(size_t)> issue = [&](size_t i) {
    const Op& op = ops[i];
    sim::SimTime due = op.at;
    if (op.write) {
      ++episode.writes;
      size_t p = op.package;
      versions[p].push_back(write_payload[i]);
      ++issued[p];
      world->moderator()->AddFile(catalog.names[p], spec.files[0].path,
                                  write_payload[i], [&, due](Status status) {
                                    ++completed;
                                    double ms = sim::ToMillis(engine.Now() - due);
                                    if (status.ok()) {
                                      episode.write_ms.push_back(ms);
                                      episode.within_slo += ms <= spec.write_slo_ms ? 1 : 0;
                                    } else {
                                      ++episode.failures;
                                    }
                                  });
    } else {
      ++episode.reads;
      browsers[op.user]->Fetch(world->NearestHttpd(users[op.user])->node(),
                               catalog.targets[op.package][op.file],
                               [&, i](Result<http::HttpResponse> response) {
                                 finish_read(ops[i], ops[i].at, std::move(response));
                               });
    }
    if (i + 1 < ops.size()) {
      engine.ScheduleAt(ops[i + 1].at, [&issue, i] { issue(i + 1); });
    }
  };

  // Port samples every 100 virtual ms: far fewer than 25,536 ports apart.
  sim::SimTime last_at = ops.empty() ? 0 : ops.back().at;
  std::function<void()> sample_ports = [&] {
    ports.Sample();
    if (engine.Now() < last_at) {
      engine.ScheduleAfter(100 * sim::kMillisecond, sample_ports);
    }
  };

  if (ledger != nullptr) {
    ledger->Clear();
    ledger->Attach(&world->network());
  }

  uint64_t events_before = engine.executed_events();
  uint64_t allocs_before = AllocationCount();
  if (!ops.empty()) {
    engine.ScheduleAt(ops.front().at, [&issue] { issue(0); });
    engine.ScheduleAt(ops.front().at, sample_ports);
  }
  Stopwatch crowd;
  world->Run();
  double wall = crowd.Seconds();
  episode.crowd_s = wall - static_cast<double>(verify_ns) * 1e-9;
  episode.events = engine.executed_events() - events_before;
  episode.allocs = AllocationCount() - allocs_before;
  ports.Sample();
  episode.ports = ports.used();

  if (ledger != nullptr) {
    ledger->Detach();
  }
  if (completed != ops.size()) {
    episode.failures += ops.size() - completed;
  }
  if (episode.ports >= PortMeter::kRange) {
    result->Violation("episode used " + std::to_string(episode.ports) +
                      " ephemeral ports; the port counter wrapped onto live ports");
  }
  browsers.clear();
  return episode;
}

void ReportEndToEnd(const GdnSpec& spec, const std::vector<Episode>& episodes,
                    WorkloadResult* result) {
  EndToEnd e2e;
  std::vector<double> writes;
  for (const Episode& e : episodes) {
    e2e.setup_s.push_back(e.setup_s);
    e2e.goodput.push_back(static_cast<double>(e.ok()) / e.crowd_s);
    e2e.read_ms.insert(e2e.read_ms.end(), e.read_ms.begin(), e.read_ms.end());
    e2e.within_slo += e.within_slo;
    writes.insert(writes.end(), e.write_ms.begin(), e.write_ms.end());
    result->attempted += e.reads + e.writes;
    result->failed += e.failures;
  }
  e2e.AppendTo(result);
  if (spec.write_rate > 0) {
    result->Add("write_p50_ms", Quantile(writes, 0.50), "ms");
    result->Add("write_p99_ms", Quantile(writes, 0.99), "ms");
  }
}

// Closed-loop attribution: one op at a time on a fresh world, the simulator
// drained between ops, every frame on the ledger. Writes only where the
// workload writes.
constexpr size_t kTracedReads = 400;
constexpr size_t kTracedWrites = 40;

struct Attribution {
  std::array<double, kLayerCount> cold{};
  std::array<double, kLayerCount> warm{};
  size_t cold_reads = 0;
  size_t warm_reads = 0;
  double latency_sum = 0;   // virtual us over all reads
  double charged_sum = 0;   // virtual us charged to layers over all reads
  std::array<double, kLayerCount> read_frames{};
  std::array<double, kLayerCount> read_bytes{};
  std::array<double, kLayerCount> write_frames{};
  size_t writes = 0;
  size_t attempted = 0;
  size_t failures = 0;  // ops that timed out or were refused; not attributed
};

Attribution Attribute(const GdnSpec& spec, const Catalog& catalog,
                      const RunOptions& options, FrameLedger* ledger,
                      WorkloadResult* result) {
  Attribution out;
  std::unique_ptr<gdn::GdnWorld> world =
      BuildWorld(spec, catalog, spec.secure, options.seed + 7777, result);
  sim::EventEngine& engine = world->simulator();
  const std::vector<sim::NodeId>& users = world->user_hosts();
  Rng rng(options.seed * 0x94D049BB133111EBULL + 0x33);
  ZipfSampler zipf(spec.packages, 1.0);
  std::set<std::pair<sim::NodeId, uint32_t>> bound;  // (httpd, package) seen
  ledger->Attach(&world->network());

  size_t reads =
      std::max<size_t>(static_cast<size_t>(kTracedReads * options.scale), 20);
  for (size_t i = 0; i < reads; ++i) {
    uint32_t package = catalog.rank_to_package[zipf.Sample(&rng)];
    uint32_t file = catalog.file_pick[rng.UniformInt(catalog.file_pick.size())];
    sim::NodeId user = users[rng.UniformInt(users.size())];
    gdn::GdnHttpd* httpd = world->NearestHttpd(user);
    bool cold = bound.insert({httpd->node(), package}).second;
    auto browser = world->MakeBrowser(user);
    ledger->Clear();
    sim::SimTime start = engine.Now();
    sim::SimTime end = 0;
    bool ok = false;
    browser->Fetch(httpd->node(), catalog.targets[package][file],
                   [&](Result<http::HttpResponse> response) {
                     end = engine.Now();
                     ok = response.ok() && response->status_code == 200;
                     const Bytes& expected = catalog.content[package][file];
                     if (ok && !SameBytes(expected, response->body)) {
                       result->Violation(catalog.names[package] + " served wrong bytes");
                     }
                   });
    world->Run();
    ++out.attempted;
    if (!ok) {
      ++out.failures;
      continue;
    }
    std::array<double, kLayerCount> charged = ledger->Attribute(start, end);
    auto& bucket = cold ? out.cold : out.warm;
    for (size_t l = 0; l < kLayerCount; ++l) {
      bucket[l] += charged[l];
      out.charged_sum += charged[l];
    }
    out.latency_sum += static_cast<double>(end - start);
    (cold ? out.cold_reads : out.warm_reads) += 1;
    for (const FrameLedger::Frame& frame : ledger->frames()) {
      if (frame.sent < end) {
        auto l = static_cast<size_t>(frame.layer);
        out.read_frames[l] += 1;
        out.read_bytes[l] += frame.bytes;
      }
    }
  }

  size_t writes = spec.write_rate == 0
                      ? 0
                      : std::max<size_t>(static_cast<size_t>(kTracedWrites * options.scale), 5);
  for (size_t i = 0; i < writes; ++i) {
    uint32_t package = catalog.rank_to_package[zipf.Sample(&rng)];
    Bytes content = rng.RandomBytes(catalog.content[package][0].size());
    ledger->Clear();
    Status status = Unavailable("pending");
    world->moderator()->AddFile(catalog.names[package], spec.files[0].path, content,
                                [&](Status s) { status = s; });
    world->Run();
    ++out.attempted;
    if (!status.ok()) {
      ++out.failures;
      continue;
    }
    ++out.writes;
    for (const FrameLedger::Frame& frame : ledger->frames()) {
      out.write_frames[static_cast<size_t>(frame.layer)] += 1;
    }
  }
  ledger->Detach();
  return out;
}

void ReportLayers(const GdnSpec& spec, const Catalog& catalog, const RunOptions& options,
                  WorkloadResult* result) {
  LayerReport report;
  FrameLedger ledger;
  // A process's first episode runs on a cold heap; it only warms up. Then the
  // same episode twice: untraced, and with every frame on the ledger.
  RunEpisode(spec, catalog, options, 1, spec.secure, nullptr, result);
  Episode plain = RunEpisode(spec, catalog, options, 0, spec.secure, nullptr, result);
  Episode traced = RunEpisode(spec, catalog, options, 0, spec.secure, &ledger, result);
  std::vector<Episode*> counted = {&plain, &traced};
  uint64_t frames = 0;
  uint64_t bytes = 0;
  uint64_t wan_frames = 0;
  uint64_t wan_bytes = 0;
  for (const FrameLedger::Frame& frame : ledger.frames()) {
    ++frames;
    bytes += frame.bytes;
    if (frame.level >= 2) {
      ++wan_frames;
      wan_bytes += frame.bytes;
    }
  }
  ledger.Clear();
  double ops = static_cast<double>(std::max<uint64_t>(plain.ok(), 1));
  double traced_ops = static_cast<double>(std::max<uint64_t>(traced.ok(), 1));
  report.Set("sim.events_per_op", static_cast<double>(plain.events) / ops);
  report.Set("sim.host_ns_per_event",
             plain.crowd_s * 1e9 / static_cast<double>(std::max<uint64_t>(plain.events, 1)));
  report.Set("sim.frames_per_op", static_cast<double>(frames) / traced_ops);
  report.Set("sim.wan_frames_per_op", static_cast<double>(wan_frames) / traced_ops);
  report.Set("net.frames_per_op", static_cast<double>(frames) / traced_ops);
  report.Set("net.bytes_per_op", static_cast<double>(bytes) / traced_ops);
  report.Set("net.allocs_per_op", static_cast<double>(plain.allocs) / ops);
  double plain_goodput = static_cast<double>(plain.ok()) / plain.crowd_s;
  double traced_goodput = static_cast<double>(traced.ok()) / traced.crowd_s;
  report.Set("trace.overhead_ratio", traced_goodput / plain_goodput);

  Episode insecure;
  if (spec.secure) {
    // The same episode with security off: the sec layer's share of host time.
    insecure = RunEpisode(spec, catalog, options, 0, false, nullptr, result);
    counted.push_back(&insecure);
    report.Set("sec.host_share", 1.0 - insecure.crowd_s / plain.crowd_s);
    std::printf("  secure episode: crowd %.3f s vs %.3f s without security\n",
                plain.crowd_s, insecure.crowd_s);
  }

  Attribution a = Attribute(spec, catalog, options, &ledger, result);
  auto per = [](double total, size_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  auto name = [](Layer layer, const char* phase) {
    return layer == Layer::kIdle ? std::string("sim.idle_") + phase + "_ms"
                                 : std::string(LayerName(layer)) + "." + phase + "_ms";
  };
  for (size_t l = 0; l < kLayerCount; ++l) {
    auto layer = static_cast<Layer>(l);
    report.Set(name(layer, "cold"), per(a.cold[l], a.cold_reads) / 1000.0);
    report.Set(name(layer, "warm"), per(a.warm[l], a.warm_reads) / 1000.0);
  }
  size_t reads = a.cold_reads + a.warm_reads;
  report.Set("dns.frames_per_op",
             per(a.read_frames[static_cast<size_t>(Layer::kDns)], reads));
  report.Set("dso.bytes_per_read", per(a.read_bytes[static_cast<size_t>(Layer::kDso)], reads));
  report.Set("gls.frames_per_lookup",
             per(a.read_frames[static_cast<size_t>(Layer::kGls)], reads));
  report.Set("dso.frames_per_write",
             per(a.write_frames[static_cast<size_t>(Layer::kDso)], a.writes));
  report.Set("gos.frames_per_write",
             per(a.write_frames[static_cast<size_t>(Layer::kGos)], a.writes));
  double sum_error =
      a.latency_sum > 0 ? std::abs(a.charged_sum - a.latency_sum) / a.latency_sum : 0;
  report.Set("trace.virtual_sum_error", sum_error);
  if (sum_error > kVirtualSumLimit) {
    result->Violation("virtual per-layer times miss the mean latency by " +
                      std::to_string(sum_error * 100) + "%");
  }
  std::printf("  traced %zu reads (%zu cold, %zu warm), %zu writes, %zu failed; "
              "virtual sum error %.4f%%\n",
              reads, a.cold_reads, a.warm_reads, a.writes, a.failures, sum_error * 100);
  result->attempted += a.attempted;
  result->failed += a.failures;
  for (const Episode* e : counted) {
    result->attempted += e->reads + e->writes;
    result->failed += e->failures;
  }
  report.AppendTo(result);
  // Wide-area bytes per successful op of the traced episode (virtual, so the
  // same as the untraced one); in the results file, not in BENCHMARK.json.
  result->Add("wan_bytes_per_op", static_cast<double>(wan_bytes) / traced_ops, "bytes");
}

WorkloadResult RunGdn(const GdnSpec& spec, const RunOptions& options) {
  WorkloadResult result;
  result.workload = spec.name;
  Catalog catalog = MakeCatalog(spec, options.seed);
  if (options.trace) {
    ReportLayers(spec, catalog, options, &result);
    return result;
  }
  std::vector<Episode> episodes;
  size_t count = EpisodeCount(options, spec.host_s_per_episode);
  for (size_t i = 0; i < count; ++i) {
    episodes.push_back(
        RunEpisode(spec, catalog, options, i, spec.secure, nullptr, &result));
    const Episode& e = episodes.back();
    std::printf("  episode %zu: setup %.3f s, crowd %.3f s, %" PRIu64 " ok, %" PRIu64
                " failed, %" PRIu64 " ports\n",
                i, e.setup_s, e.crowd_s, e.ok(), e.failures, e.ports);
  }
  ReportEndToEnd(spec, episodes, &result);
  return result;
}

}  // namespace

WorkloadResult RunFlashCrowd(const RunOptions& options) {
  GdnSpec spec;
  spec.name = "flash_crowd";
  spec.packages = 256;
  spec.files = {{"README", 2048, 6144, 3}, {"dist.tgz", 32 * 1024, 96 * 1024, 1}};
  spec.read_rate = 1000;
  spec.episode_s = 12;
  spec.read_slo_ms = 1000;
  spec.host_s_per_episode = 1.3;
  return RunGdn(spec, options);
}

WorkloadResult RunUpdateChurn(const RunOptions& options) {
  GdnSpec spec;
  spec.name = "update_churn";
  spec.secure = true;
  spec.packages = 64;
  spec.files = {{"data.bin", 12 * 1024, 20 * 1024, 1}};
  spec.read_rate = 200;
  spec.write_rate = 10;
  spec.episode_s = 40;
  spec.read_slo_ms = 500;
  spec.write_slo_ms = 2000;
  spec.host_s_per_episode = 3.4;
  return RunGdn(spec, options);
}

}  // namespace globe::benchmark
