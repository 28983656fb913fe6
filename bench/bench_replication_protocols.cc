// E7 — replication protocols under varying read/write mixes (paper §3.2-3.3).
//
// Claim: replication subobjects are interchangeable per object, and different
// protocols suit different access patterns — "one object may actively replicate all
// the state at all the local representatives while another may use lazy replication."
//
// Workload: one master + two secondary replicas (or caches) on distant continents;
// 300 operations at mixes from read-only to write-heavy, driven through a
// same-continent client at each replica. Metrics: mean operation latency, WAN bytes,
// and staleness (max version lag observed at secondaries after each write).
//
// Expected shape: client/server is flat (every op crosses the WAN); master/slave and
// active replication win reads but pay per write (full state vs invocation — active
// replication's WAN cost stays small for small writes on a large object);
// cache/invalidate wins read-heavy mixes and degrades as invalidations force
// re-fetches.

#include "bench/bench_util.h"
#include "src/dso/protocols.h"
#include "src/dso/active_repl.h"
#include "src/dso/cache_inval.h"
#include "src/dso/client_server.h"
#include "src/dso/master_slave.h"
#include "src/gdn/package.h"
#include "src/sim/backend.h"

using namespace globe;
using bench::Fmt;

namespace {

constexpr int kOperations = 300;
constexpr size_t kBaseStateBytes = 200000;  // large object, small updates

struct MixResult {
  double mean_op_ms = 0;
  uint64_t wan_bytes = 0;
  uint64_t max_staleness = 0;
};

// Builds a replica set of `protocol` over a fresh world and runs the mix.
MixResult RunMix(gls::ProtocolId protocol, double write_fraction) {
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({3, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);

  auto make_package = [] {
    auto package = std::make_unique<gdn::PackageObject>();
    auto init = gdn::pkg::kAddFile.Marshal({"base", Bytes(kBaseStateBytes, 0x11)});
    (void)package->Invoke(init);
    return package;
  };

  // Master on continent 0; secondaries on continents 1 and 2.
  std::vector<std::unique_ptr<dso::ReplicationObject>> replicas;
  dso::ReplicaSetup master_setup;
  master_setup.transport = &transport;
  master_setup.host = world.hosts[0];
  master_setup.semantics = make_package();
  master_setup.role = gls::ReplicaRole::kMaster;
  auto master = dso::MakeReplica(protocol, std::move(master_setup));
  if (!master.ok()) {
    std::printf("master creation failed\n");
    std::exit(1);
  }
  replicas.push_back(std::move(*master));

  for (sim::NodeId host : {world.hosts[4], world.hosts[8]}) {
    dso::ReplicaSetup setup;
    setup.transport = &transport;
    setup.host = host;
    setup.semantics = std::make_unique<gdn::PackageObject>();
    setup.role = protocol == dso::kProtoCacheInval ? gls::ReplicaRole::kCache
                                                   : gls::ReplicaRole::kSlave;
    setup.peers = {*replicas[0]->contact_address()};
    auto replica = dso::MakeReplica(protocol, std::move(setup));
    if (replica.ok()) {
      replicas.push_back(std::move(*replica));
      Status status = Unavailable("pending");
      replicas.back()->Start([&](Status s) { status = s; });
      simulator.Run();
      if (!status.ok()) {
        std::printf("replica start failed: %s\n", status.ToString().c_str());
        std::exit(1);
      }
    }
    // client/server admits no secondaries: clients will hit the single master.
  }

  // One client proxy near each replica (or near the master for client/server).
  std::vector<std::unique_ptr<dso::ReplicationObject>> proxies;
  std::vector<sim::NodeId> client_hosts = {world.hosts[1], world.hosts[5],
                                           world.hosts[9]};
  for (size_t i = 0; i < client_hosts.size(); ++i) {
    const auto& target = replicas[std::min(i, replicas.size() - 1)];
    auto proxy = std::make_unique<dso::RemoteProxy>(&transport, client_hosts[i],
                                                    *target->contact_address());
    proxies.push_back(std::move(proxy));
  }

  network.mutable_stats()->Clear();
  Rng rng(0xe7 + static_cast<uint64_t>(write_fraction * 100));
  MixResult result;
  double total_ms = 0;
  int completed = 0;

  for (int op = 0; op < kOperations; ++op) {
    auto& proxy = proxies[rng.UniformInt(proxies.size())];
    bool is_write = rng.Bernoulli(write_fraction);
    dso::Invocation invocation =
        is_write ? gdn::pkg::kAddFile.Marshal(
                       {"delta" + std::to_string(op % 8), Bytes(512, 0x22)})
                 : gdn::pkg::kGetFileInfo.Marshal({"base"});
    sim::SimTime started = simulator.Now();
    sim::SimTime finished = started;
    bool ok = false;
    proxy->Invoke(invocation, [&](Result<Bytes> r) {
      finished = simulator.Now();
      ok = r.ok();
    });
    simulator.Run();
    if (ok) {
      total_ms += sim::ToMillis(finished - started);
      ++completed;
    }
    if (is_write) {
      uint64_t master_version = replicas[0]->version();
      for (size_t i = 1; i < replicas.size(); ++i) {
        uint64_t lag = master_version - std::min(master_version, replicas[i]->version());
        result.max_staleness = std::max(result.max_staleness, lag);
      }
    }
  }
  result.mean_op_ms = completed > 0 ? total_ms / completed : 0;
  result.wan_bytes = network.stats().BytesAtOrAbove(1);
  return result;
}

}  // namespace

int main() {
  bench::Title("E7 bench_replication_protocols",
               "protocol comparison across read/write mixes (paper 3.2-3.3)");
  bench::Note("%d ops, 200 KB object, 512 B writes, 3 clients near 3 replica sites",
              kOperations);

  struct Proto {
    gls::ProtocolId id;
    const char* name;
  };
  std::vector<Proto> protocols = {
      {dso::kProtoClientServer, "client/server"},
      {dso::kProtoMasterSlave, "master/slave"},
      {dso::kProtoActiveRepl, "active"},
      {dso::kProtoCacheInval, "cache/inval"},
  };

  for (double writes : {0.0, 0.05, 0.2, 0.5}) {
    std::printf("\n--- write fraction %.0f%% ---\n", writes * 100);
    bench::Table table({"protocol", "mean op", "WAN bytes", "max staleness"});
    for (const Proto& proto : protocols) {
      MixResult r = RunMix(proto.id, writes);
      table.Row({proto.name, Fmt("%.1f ms", r.mean_op_ms), FormatBytes(r.wan_bytes),
                 Fmt("%llu", (unsigned long long)r.max_staleness)});
    }
  }

  bench::Note("");
  bench::Note("expected shape (paper): no single protocol wins every mix - the reason");
  bench::Note("Globe makes replication pluggable per object. client/server is flat and");
  bench::Note("slow (all ops remote); master/slave and active replication serve reads");
  bench::Note(
      "locally, with active replication far cheaper per write (it ships the 512 B");
  bench::Note(
      "invocation, not the 200 KB state); cache/inval excels when writes are rare.");
  return 0;
}
