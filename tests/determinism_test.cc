// Determinism of the event engine (src/sim/simulator.h) across shard counts.
//
// The engine's contract: for a pinned seed, a run is byte-identical to a re-run
// with the same shard count, and — on tie-free workloads, where no two events
// share a (time, node) slot — a 4-shard run is identical to a 1-shard run in
// executed-event count, final virtual time, per-request outcomes and final
// service state. The suite drives a real GLS deployment (with the
// memory-bounded subnode store exercising spill/fault-in at both shard counts)
// and compares checkpoint bytes, plus unit tests for the engine's window and
// boundary machinery.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "src/gls/deploy.h"
#include "src/sim/backend.h"

namespace globe {
namespace {

using sim::BuildUniformWorld;
using sim::DomainId;
using sim::NodeId;
using sim::SimTime;
using sim::Simulator;
using sim::UniformWorld;

// ------------------------------------------------------------ engine units

TEST(EngineTest, RunsShardLocalEventsInTimeOrder) {
  Simulator engine(2, /*lookahead_us=*/100);
  engine.AssignNode(0, 0);
  engine.AssignNode(1, 1);
  std::vector<int> order;
  engine.ScheduleAtForNode(0, 30, [&] { order.push_back(3); });
  engine.ScheduleAtForNode(0, 10, [&] { order.push_back(1); });
  engine.ScheduleAtForNode(0, 20, [&] { order.push_back(2); });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.executed_events(), 3u);
}

TEST(EngineTest, CrossShardHandoffRunsOnTargetShard) {
  Simulator engine(2, /*lookahead_us=*/50);
  engine.AssignNode(0, 0);
  engine.AssignNode(1, 1);
  std::atomic<size_t> observed_shard{99};
  // Both shards get work so the window dispatches in parallel; the event on
  // node 0 sends one across to node 1 beyond the lookahead horizon.
  engine.ScheduleAtForNode(1, 10, [] {});
  engine.ScheduleAtForNode(0, 10, [&] {
    engine.ScheduleAtForNode(1, 100, [&] { observed_shard = engine.current_shard(); });
  });
  engine.Run();
  EXPECT_EQ(observed_shard.load(), 1u);
  EXPECT_EQ(engine.executed_events(), 3u);
  EXPECT_EQ(engine.lookahead_violations(), 0u);
}

TEST(EngineTest, LookaheadViolationIsClampedAndCounted) {
  Simulator engine(2, /*lookahead_us=*/1000);
  engine.AssignNode(0, 0);
  engine.AssignNode(1, 1);
  // Shard 1 has an event at 500 inside the same window as shard 0's event at
  // 100; the cross-shard message aimed at t=101 arrives after shard 1 already
  // advanced to 500, so it must clamp forward, never travel back.
  std::vector<SimTime> ran_at;
  engine.ScheduleAtForNode(1, 500, [&] { ran_at.push_back(engine.Now()); });
  engine.ScheduleAtForNode(0, 100, [&] {
    engine.ScheduleAtForNode(1, 101, [&] { ran_at.push_back(engine.Now()); });
  });
  engine.Run();
  ASSERT_EQ(ran_at.size(), 2u);
  EXPECT_EQ(ran_at[0], 500);
  EXPECT_GE(ran_at[1], 500);  // clamped to the target shard's clock
  EXPECT_EQ(engine.lookahead_violations(), 1u);
}

TEST(EngineTest, BarrierRunsWithShardsParkedAndInOrder) {
  Simulator engine(2, /*lookahead_us=*/10);
  engine.AssignNode(0, 0);
  engine.AssignNode(1, 1);
  std::vector<int> order;
  engine.ScheduleAtForNode(0, 5, [&] { order.push_back(0); });
  engine.ScheduleAtForNode(1, 15, [&] { order.push_back(2); });
  engine.ScheduleBarrier(10, [&] {
    EXPECT_FALSE(engine.InParallelRegion());
    order.push_back(1);
    // Barrier context may schedule onto any shard directly.
    engine.ScheduleAtForNode(1, 20, [&] { order.push_back(3); });
  });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EngineTest, CancelShardLocalEventSkipsIt) {
  Simulator engine(2, /*lookahead_us=*/100);
  engine.AssignNode(0, 0);
  bool cancelled_ran = false;
  bool fired = false;
  auto id = engine.ScheduleAtForNode(0, 50, [&] { cancelled_ran = true; });
  engine.ScheduleAtForNode(0, 10, [&] {
    EXPECT_TRUE(engine.Cancel(id));
    fired = true;
  });
  engine.Run();
  EXPECT_TRUE(fired);
  EXPECT_FALSE(cancelled_ran);
  EXPECT_EQ(engine.executed_events(), 1u);
}

TEST(EngineTest, CancelRejectsIdOfMissingShard) {
  // Three shards use two id bits; an id whose shard bits read 3 names no
  // shard and must be refused, not index past the shard table.
  Simulator engine(3, /*lookahead_us=*/100);
  bool ran = false;
  engine.ScheduleAt(10, [&] { ran = true; });
  EXPECT_FALSE(engine.Cancel((uint64_t{5} << 2) | 3));
  engine.Run();
  EXPECT_TRUE(ran);
}

TEST(EngineTest, OneShardNeverEntersParallelRegion) {
  // Events on a one-shard engine may mutate the network's fault tables, whose
  // mutators assert they run outside a parallel region.
  UniformWorld world = BuildUniformWorld({2}, 1);
  Simulator engine;
  sim::Network network(&engine, &world.topology);
  bool checked = false;
  engine.ScheduleAt(10, [&] {
    EXPECT_FALSE(engine.InParallelRegion());
    network.SetNodeUp(world.hosts[0], false);
    network.SetDropProbability(0.5);
    checked = true;
  });
  engine.Run();
  EXPECT_TRUE(checked);
  EXPECT_FALSE(network.IsNodeUp(world.hosts[0]));
  EXPECT_EQ(engine.windows_run(), 1u);
  EXPECT_EQ(engine.parallel_windows(), 0u);
}

TEST(EngineTest, OneShardBarrierKeepsSchedulingOrder) {
  // On one shard a barrier is an ordinary event: among same-time events it
  // runs in scheduling order, and its id continues the event id sequence.
  Simulator engine;
  std::vector<int> order;
  EXPECT_EQ(engine.ScheduleAt(10, [&] { order.push_back(1); }), 1u);
  EXPECT_EQ(engine.ScheduleBarrier(10, [&] { order.push_back(2); }), 2u);
  EXPECT_EQ(engine.ScheduleAt(10, [&] { order.push_back(3); }), 3u);
  engine.ScheduleAt(5, [&] {
    order.push_back(0);
    engine.ScheduleBarrier(10, [&] { order.push_back(4); });
  });
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(engine.executed_events(), 5u);
}

// ------------------------------------------------- 1 shard vs 4 shards

uint64_t Fnv1a(uint64_t hash, const Bytes& bytes) {
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

struct TraceResult {
  uint64_t executed = 0;
  SimTime end_time = 0;
  // Canonical directory state: every subnode's entries in sorted-OID order
  // (ExportEntries), serialized and hashed. RPC correlation ids (ephemeral
  // ports, request ids) are process-global counters excluded by design — they
  // never influence behaviour, so they are not part of the replay contract.
  uint64_t state_hash = 0;
  std::vector<uint8_t> outcomes;  // per lookup: address count (0xFF = failed)
  uint64_t evictions = 0;
  uint64_t fault_ins = 0;

  bool operator==(const TraceResult&) const = default;
};

// One deterministic GLS workload — staggered registrations, cached lookups and
// deletes with collision-free timestamps — on `shards` event shards. The
// subnode store is capacity-bounded so eviction/spill/fault-in runs too.
TraceResult RunGlsWorkload(size_t shards, uint64_t seed) {
  constexpr int kOids = 48;
  constexpr int kLookups = 96;

  UniformWorld world = BuildUniformWorld({4, 4}, 2);
  sim::NetworkOptions net_options;
  net_options.rng_seed = seed;

  Simulator engine(shards, static_cast<SimTime>(net_options.profile.LatencyAt(1)));

  // Continent homing; must run before a node's services register ports.
  auto assign_node = [&](NodeId node) {
    DomainId d = world.topology.NodeDomain(node);
    while (world.topology.DomainDepth(d) > 1) {
      d = world.topology.DomainParent(d);
    }
    engine.AssignNode(node, world.topology.DomainDepth(d) == 0
                                ? 0
                                : static_cast<size_t>(d - 1) % shards);
  };
  for (NodeId node = 0; node < world.topology.num_nodes(); ++node) {
    assign_node(node);
  }

  sim::Network network(&engine, &world.topology, net_options);
  sim::PlainTransport transport(&network);
  gls::GlsDeploymentOptions options;
  options.rng_seed = seed;
  options.node_options.enable_cache = true;
  options.node_options.store_capacity = 8;
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr, options,
                                assign_node);

  Rng rng(seed);
  std::vector<gls::ObjectId> oids;
  for (int i = 0; i < kOids; ++i) {
    oids.push_back(gls::ObjectId::Generate(&rng));
  }

  std::vector<std::shared_ptr<gls::GlsClient>> clients;
  for (NodeId host : world.hosts) {
    auto client = std::make_shared<gls::GlsClient>(
        &transport, host, deployment.LeafDirectoryFor(host));
    client->set_allow_cached(true);
    clients.push_back(client);
  }
  auto host_of = [&](int i) { return world.hosts[i % world.hosts.size()]; };
  auto address_of = [&](int i) {
    return gls::ContactAddress{{host_of(i), sim::kPortGos}, 1,
                               gls::ReplicaRole::kMaster};
  };

  // Registrations: distinct times (prime stride), spread over every continent.
  for (int i = 0; i < kOids; ++i) {
    engine.ScheduleAtForNode(host_of(i), 1 + i * 937, [&, i] {
      clients[i % clients.size()]->Insert(oids[i], address_of(i), [](Status) {});
    });
  }
  engine.Run();

  // Cached lookups from everywhere; outcomes recorded positionally (each slot
  // written by exactly one callback, so shard threads never contend).
  TraceResult result;
  result.outcomes.assign(kLookups, 0);
  SimTime base = engine.Now() + 1;
  for (int j = 0; j < kLookups; ++j) {
    int reader = (j * 7 + 3) % static_cast<int>(clients.size());
    engine.ScheduleAtForNode(host_of(reader), base + j * 1331, [&, j, reader] {
      clients[reader]->Lookup(oids[(j * 5) % kOids],
                              [&, j](Result<gls::LookupResult> r) {
                                result.outcomes[j] =
                                    r.ok() ? static_cast<uint8_t>(r->addresses.size())
                                           : 0xFF;
                              });
    });
  }
  engine.Run();

  // Deregister a third of the objects, then checkpoint everything.
  for (int i = 0; i < kOids; i += 3) {
    engine.ScheduleAtForNode(host_of(i), engine.Now() + 1 + i * 739, [&, i] {
      clients[i % clients.size()]->Delete(oids[i], address_of(i), [](Status) {});
    });
  }
  engine.Run();

  result.executed = engine.executed_events();
  result.end_time = engine.Now();
  result.state_hash = 0xcbf29ce484222325ULL;
  for (const auto& subnode : deployment.subnodes()) {
    for (const auto& [oid, entry] : subnode->ExportEntries()) {
      ByteWriter w;
      wire::Put(&w, oid);
      result.state_hash = Fnv1a(result.state_hash, w.Take());
      result.state_hash =
          Fnv1a(result.state_hash, gls::SubnodeStore::SerializeEntry(entry));
    }
  }
  gls::SubnodeStats totals = deployment.TotalStats();
  result.evictions = totals.store_evictions;
  result.fault_ins = totals.store_fault_ins;
  return result;
}

constexpr uint64_t kSeeds[] = {1337, 4242, 9001};

TEST(DeterminismTest, ShardedMatchesSequentialOnTieFreeWorkload) {
  for (uint64_t seed : kSeeds) {
    TraceResult sequential = RunGlsWorkload(1, seed);
    TraceResult sharded = RunGlsWorkload(4, seed);
    EXPECT_EQ(sequential.executed, sharded.executed) << "seed " << seed;
    EXPECT_EQ(sequential.end_time, sharded.end_time) << "seed " << seed;
    EXPECT_EQ(sequential.outcomes, sharded.outcomes) << "seed " << seed;
    EXPECT_EQ(sequential.state_hash, sharded.state_hash) << "seed " << seed;
    // The bounded store spilled and faulted identically at both shard counts.
    EXPECT_EQ(sequential.evictions, sharded.evictions) << "seed " << seed;
    EXPECT_EQ(sequential.fault_ins, sharded.fault_ins) << "seed " << seed;
    EXPECT_GT(sequential.evictions, 0u) << "seed " << seed;
  }
}

TEST(DeterminismTest, ShardedReplayIsByteIdentical) {
  for (uint64_t seed : kSeeds) {
    TraceResult first = RunGlsWorkload(4, seed);
    TraceResult second = RunGlsWorkload(4, seed);
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

TEST(DeterminismTest, SequentialReplayIsByteIdentical) {
  for (uint64_t seed : kSeeds) {
    TraceResult first = RunGlsWorkload(1, seed);
    TraceResult second = RunGlsWorkload(1, seed);
    EXPECT_EQ(first, second) << "seed " << seed;
  }
}

}  // namespace
}  // namespace globe
