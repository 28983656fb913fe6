// Tests for the adaptive-replication control plane (src/ctl): the decayed-rate
// telemetry layer, cross-server aggregation, the controller's cost model, and
// the safety knobs (hysteresis, dwell, budget, in-flight fencing) that keep a
// live migration from thrashing.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "src/ctl/access_stats.h"
#include "src/ctl/controller.h"
#include "src/ctl/metrics_registry.h"
#include "src/dso/protocols.h"
#include "src/sim/backend.h"
#include "src/util/rng.h"

namespace globe::ctl {
namespace {

using sim::kSecond;
using sim::SimTime;

gls::ObjectId TestOid(uint64_t seed) {
  Rng rng(seed);
  return gls::ObjectId::Generate(&rng);
}

// Advances a simulator's virtual clock to `t` (an empty event moves "now").
void AdvanceTo(sim::Simulator* simulator, SimTime t) {
  simulator->ScheduleAt(t, [] {});
  simulator->Run();
}

// ---------------------------------------------------------------- telemetry

TEST(RateEstimator, ConvergesToEventRate) {
  RateEstimator est;
  // One event per second for two minutes: the decayed weight converges to
  // 1/(1 - e^(-1/tau_sec)) and the rate estimate to ~1 event/sec.
  SimTime now = 0;
  for (int i = 0; i < 120; ++i) {
    now = static_cast<SimTime>(i) * kSecond;
    est.Observe(now, 500);
  }
  EXPECT_NEAR(est.RatePerSec(now), 1.0, 0.05);
  EXPECT_EQ(est.count(), 120u);
  EXPECT_DOUBLE_EQ(est.MeanBytes(), 500.0);

  // Idle decay: after 3*tau the estimate has fallen to ~e^-3 of its value.
  double idle = est.RatePerSec(now + 3 * RateEstimator::kDefaultTau);
  EXPECT_LT(idle, 0.06);
  EXPECT_GT(idle, 0.0);
}

TEST(RateEstimator, MergeMatchesCombinedHistory) {
  // Decayed weights are sums of exp(-(T-t_i)/tau) over events, so merging two
  // estimators must reproduce exactly the estimator that saw every event.
  RateEstimator a;
  RateEstimator b;
  RateEstimator combined;
  for (int i = 0; i < 40; ++i) {
    SimTime t = static_cast<SimTime>(i) * 700 * sim::kMillisecond;
    if (i % 3 == 0) {
      a.Observe(t, 100);
    } else {
      b.Observe(t, 300);
    }
    combined.Observe(t, i % 3 == 0 ? 100 : 300);
  }
  a.MergeFrom(b);
  SimTime now = 40 * kSecond;
  EXPECT_NEAR(a.RatePerSec(now), combined.RatePerSec(now), 1e-9);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.total_bytes(), combined.total_bytes());
}

TEST(RateEstimator, MergeFromEmptyIsIdentity) {
  RateEstimator a;
  a.Observe(5 * kSecond, 64);
  double before = a.RatePerSec(10 * kSecond);
  RateEstimator empty;
  a.MergeFrom(empty);
  EXPECT_DOUBLE_EQ(a.RatePerSec(10 * kSecond), before);
  EXPECT_EQ(a.count(), 1u);
}

TEST(AccessStats, RegionReadSharesNormalize) {
  AccessStats stats;
  SimTime now = kSecond;
  stats.RecordRead(now, 1000, /*region=*/1);
  stats.RecordRead(now, 1000, 1);
  stats.RecordRead(now, 1000, 1);
  stats.RecordRead(now, 1000, 2);
  auto shares = stats.RegionReadShares(now);
  ASSERT_EQ(shares.size(), 2u);
  EXPECT_NEAR(shares[1], 0.75, 1e-9);
  EXPECT_NEAR(shares[2], 0.25, 1e-9);
}

TEST(AccessStats, SerializeRestoreRoundTrips) {
  AccessStats stats;
  for (int i = 0; i < 25; ++i) {
    SimTime t = static_cast<SimTime>(i) * kSecond;
    stats.RecordRead(t, 4096, static_cast<RegionId>(i % 3));
    if (i % 5 == 0) {
      stats.RecordWrite(t, 512, 0);
    }
  }
  ByteWriter w;
  stats.Serialize(&w);
  Bytes blob = w.Take();

  AccessStats restored;
  ByteReader r(blob);
  ASSERT_TRUE(restored.Restore(&r).ok());
  EXPECT_TRUE(r.AtEnd());

  SimTime now = 30 * kSecond;
  EXPECT_DOUBLE_EQ(restored.ReadRatePerSec(now), stats.ReadRatePerSec(now));
  EXPECT_DOUBLE_EQ(restored.WriteRatePerSec(now), stats.WriteRatePerSec(now));
  EXPECT_EQ(restored.total_reads(), stats.total_reads());
  EXPECT_EQ(restored.total_writes(), stats.total_writes());
  EXPECT_DOUBLE_EQ(restored.MeanReadBytes(), stats.MeanReadBytes());
  EXPECT_EQ(restored.RegionReadShares(now), stats.RegionReadShares(now));
}

TEST(MetricsRegistry, AggregatesAcrossServersAndForgets) {
  sim::Simulator simulator;
  AdvanceTo(&simulator, kSecond);

  // Two "servers", each with its own registry: reads served by a secondary
  // must count in the merged world view.
  MetricsRegistry master(&simulator, [](sim::NodeId node) {
    return static_cast<RegionId>(node / 100);
  });
  MetricsRegistry secondary(&simulator, [](sim::NodeId node) {
    return static_cast<RegionId>(node / 100);
  });
  gls::ObjectId oid = TestOid(1);

  dso::AccessHook master_hook = master.HookFor(oid);
  dso::AccessHook secondary_hook = secondary.HookFor(oid);
  master_hook({.is_write = true, .bytes = 200, .client = 10});
  master_hook({.is_write = false, .bytes = 1000, .client = 20});
  secondary_hook({.is_write = false, .bytes = 1000, .client = 150});
  secondary_hook({.is_write = false, .bytes = 1000, .client = 160});

  MetricsRegistry world(&simulator);
  world.Clear();
  world.MergeFrom(master);
  world.MergeFrom(secondary);

  const AccessStats* stats = world.Find(oid);
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->total_reads(), 3u);
  EXPECT_EQ(stats->total_writes(), 1u);
  // Region 0 (nodes 10/20) carries one read, region 1 (nodes 150/160) two.
  auto shares = stats->RegionReadShares(simulator.Now());
  EXPECT_NEAR(shares[0], 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(shares[1], 2.0 / 3.0, 1e-9);

  world.Forget(oid);
  EXPECT_EQ(world.Find(oid), nullptr);
  EXPECT_EQ(world.size(), 0u);
}

// ---------------------------------------------------------------- cost model

// Records Migrate calls; completes each immediately unless `defer` is set.
class FakeActuator : public PolicyActuator {
 public:
  struct Call {
    gls::ObjectId oid;
    PolicyDecision decision;
  };

  void Migrate(const gls::ObjectId& oid, const PolicyDecision& decision,
               std::function<void(Status)> done) override {
    calls.push_back({oid, decision});
    if (defer) {
      pending.push_back(std::move(done));
    } else {
      done(OkStatus());
    }
  }

  std::vector<Call> calls;
  std::vector<std::function<void(Status)>> pending;
  bool defer = false;
};

// A flash crowd: heavy reads spread evenly over `regions`, rare tiny writes
// from region 0. Cheapest policy by the model: active replication (writes
// broadcast only their small arguments).
AccessStats FlashCrowdStats(SimTime until, int regions, uint64_t read_bytes,
                            uint64_t write_bytes, int reads_per_sec = 8) {
  AccessStats stats;
  for (SimTime t = 0; t <= until; t += kSecond) {
    for (int r = 0; r < reads_per_sec; ++r) {
      stats.RecordRead(t, read_bytes, static_cast<RegionId>(r % regions));
    }
    if ((t / kSecond) % 2 == 0) {
      stats.RecordWrite(t, write_bytes, 0);
    }
  }
  return stats;
}

TEST(ReplicationController, DecidePicksActiveReplicationForFlashCrowd) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator);
  FakeActuator actuator;
  ReplicationController controller(&simulator, &metrics, &actuator);

  SimTime now = 30 * kSecond;
  // Reads: 8/s of 40 KB spread over 4 regions; writes: 0.5/s of 100 B. Central
  // pays ~R*Sr*(3/4) in WAN reads; active replication pays only W*Sw*3.
  AccessStats stats = FlashCrowdStats(now, 4, 40000, 100);
  PolicyDecision decision =
      controller.Decide(stats, dso::kProtoClientServer, now);
  EXPECT_EQ(decision.protocol, dso::kProtoActiveRepl);
  // Home region (heaviest reader, smallest id on ties) is 0; the other three
  // each carry 25% >= min_region_share and earn replicas.
  EXPECT_EQ(decision.replica_regions, (std::vector<RegionId>{1, 2, 3}));
}

TEST(ReplicationController, DecideKeepsHomeBoundObjectCentral) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator);
  FakeActuator actuator;
  ReplicationController controller(&simulator, &metrics, &actuator);

  SimTime now = 30 * kSecond;
  // Everything comes from one region: no WAN cost under client/server, and
  // every replicated policy only adds update traffic.
  AccessStats stats = FlashCrowdStats(now, /*regions=*/1, 40000, 2000);
  PolicyDecision decision =
      controller.Decide(stats, dso::kProtoClientServer, now);
  EXPECT_EQ(decision.protocol, dso::kProtoClientServer);
  EXPECT_TRUE(decision.replica_regions.empty());
}

TEST(ReplicationController, HysteresisHoldsNarrowWins) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator);
  FakeActuator actuator;

  // Reads 8/s of 10 KB over 4 regions; writes 0.5/s of 9 KB. Incumbent
  // master/slave pushes state (10 KB); challenger active replication pushes
  // arguments (9 KB) — a 10% win, under the default 25% hysteresis.
  SimTime now = 30 * kSecond;
  AccessStats stats = FlashCrowdStats(now, 4, 10000, 9000);

  ReplicationController holding(&simulator, &metrics, &actuator);
  PolicyDecision held = holding.Decide(stats, dso::kProtoMasterSlave, now);
  EXPECT_EQ(held.protocol, dso::kProtoMasterSlave);

  ControllerConfig eager;
  eager.hysteresis = 0.05;
  ReplicationController moving(&simulator, &metrics, &actuator, eager);
  PolicyDecision moved = moving.Decide(stats, dso::kProtoMasterSlave, now);
  EXPECT_EQ(moved.protocol, dso::kProtoActiveRepl);
}

TEST(ReplicationController, SingleRegionMaintenanceFloorBreaksCentralTie) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator);
  FakeActuator actuator;
  ReplicationController controller(&simulator, &metrics, &actuator);

  // Degenerate K=1 workload: every access from the home region. Without a
  // maintenance term the replicated policies deploy zero secondaries and score
  // exactly 0 — tied with central, so the winner used to depend on candidate
  // enumeration order and a replicated incumbent could hold on forever. The
  // per-replica maintenance floor makes central strictly cheapest, so the
  // controller must come home no matter which protocol it starts from.
  SimTime now = 30 * kSecond;
  AccessStats stats = FlashCrowdStats(now, /*regions=*/1, 40000, 2000);
  const gls::ProtocolId incumbents[] = {
      0, dso::kProtoClientServer, dso::kProtoMasterSlave,
      dso::kProtoActiveRepl, dso::kProtoCacheInval};
  for (gls::ProtocolId current : incumbents) {
    PolicyDecision decision = controller.Decide(stats, current, now);
    EXPECT_EQ(decision.protocol, dso::kProtoClientServer)
        << "incumbent protocol " << static_cast<int>(current);
    EXPECT_TRUE(decision.replica_regions.empty())
        << "incumbent protocol " << static_cast<int>(current);
  }
}

// ---------------------------------------------------------------- evaluation

// Schedules one second's worth of samples per second for one object, from the
// simulator's current time through `until`. Callers Run() the simulator after
// all feeds are scheduled, so several objects can share a time window.
void Feed(MetricsRegistry* registry, const gls::ObjectId& oid,
          sim::Simulator* simulator, SimTime until, int regions,
          uint64_t read_bytes, uint64_t write_bytes, int reads_per_sec = 8,
          int writes_per_sec = 1) {
  for (SimTime t = simulator->Now(); t <= until; t += kSecond) {
    simulator->ScheduleAt(t, [=] {
      for (int r = 0; r < reads_per_sec; ++r) {
        dso::AccessSample sample;
        sample.is_write = false;
        sample.bytes = read_bytes;
        sample.client = static_cast<sim::NodeId>(r % regions);
        registry->Record(oid, sample);
      }
      for (int w = 0; w < writes_per_sec; ++w) {
        dso::AccessSample write;
        write.is_write = true;
        write.bytes = write_bytes;
        write.client = 0;
        registry->Record(oid, write);
      }
    });
  }
}

ControllerConfig TestConfig() {
  ControllerConfig config;
  config.evaluate_interval = 0;  // ticks driven manually
  config.min_dwell = 60 * kSecond;
  return config;
}

TEST(ReplicationController, MigrationBudgetSpendsOnHottestFirst) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator, [](sim::NodeId node) {
    return static_cast<RegionId>(node);
  });
  FakeActuator actuator;
  ControllerConfig config = TestConfig();
  config.migration_budget_per_tick = 1;
  ReplicationController controller(&simulator, &metrics, &actuator, config);

  gls::ObjectId hot = TestOid(1);
  gls::ObjectId warm = TestOid(2);
  controller.Track(hot, dso::kProtoClientServer);
  controller.Track(warm, dso::kProtoClientServer);
  Feed(&metrics, hot, &simulator, 30 * kSecond, 4, 40000, 100,
       /*reads_per_sec=*/16);
  Feed(&metrics, warm, &simulator, 30 * kSecond, 4, 40000, 100,
       /*reads_per_sec=*/4);
  simulator.Run();

  controller.EvaluateNow();
  ASSERT_EQ(actuator.calls.size(), 1u);
  EXPECT_EQ(actuator.calls[0].oid, hot);  // bigger absolute savings
  EXPECT_EQ(controller.stats().held_by_budget, 1u);
  EXPECT_EQ(controller.CurrentProtocolOf(hot), dso::kProtoActiveRepl);
  EXPECT_EQ(controller.CurrentProtocolOf(warm), dso::kProtoClientServer);

  controller.EvaluateNow();
  ASSERT_EQ(actuator.calls.size(), 2u);
  EXPECT_EQ(actuator.calls[1].oid, warm);
  EXPECT_EQ(controller.CurrentProtocolOf(warm), dso::kProtoActiveRepl);

  // Converged: policies match decisions, nothing further to do.
  controller.EvaluateNow();
  EXPECT_EQ(actuator.calls.size(), 2u);
  EXPECT_EQ(controller.stats().migrations_succeeded, 2u);
}

TEST(ReplicationController, InFlightMigrationIsNotRedecided) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator, [](sim::NodeId node) {
    return static_cast<RegionId>(node);
  });
  FakeActuator actuator;
  actuator.defer = true;
  ReplicationController controller(&simulator, &metrics, &actuator, TestConfig());

  gls::ObjectId oid = TestOid(3);
  controller.Track(oid, dso::kProtoClientServer);
  Feed(&metrics, oid, &simulator, 30 * kSecond, 4, 40000, 100);
  simulator.Run();

  controller.EvaluateNow();
  ASSERT_EQ(actuator.calls.size(), 1u);
  // Still in flight: a second tick must not start a concurrent migration of
  // the same object.
  controller.EvaluateNow();
  EXPECT_EQ(actuator.calls.size(), 1u);
  EXPECT_EQ(controller.stats().migrations_started, 1u);
  EXPECT_EQ(controller.CurrentProtocolOf(oid), dso::kProtoClientServer);

  ASSERT_EQ(actuator.pending.size(), 1u);
  actuator.pending[0](OkStatus());
  EXPECT_EQ(controller.stats().migrations_succeeded, 1u);
  EXPECT_EQ(controller.CurrentProtocolOf(oid), dso::kProtoActiveRepl);
}

TEST(ReplicationController, FailedMigrationKeepsOldPolicyAndRetries) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator, [](sim::NodeId node) {
    return static_cast<RegionId>(node);
  });
  FakeActuator actuator;
  actuator.defer = true;
  ReplicationController controller(&simulator, &metrics, &actuator, TestConfig());

  gls::ObjectId oid = TestOid(4);
  controller.Track(oid, dso::kProtoClientServer);
  Feed(&metrics, oid, &simulator, 30 * kSecond, 4, 40000, 100);
  simulator.Run();

  controller.EvaluateNow();
  ASSERT_EQ(actuator.pending.size(), 1u);
  actuator.pending[0](Unavailable("partitioned"));
  EXPECT_EQ(controller.stats().migrations_failed, 1u);
  EXPECT_EQ(controller.CurrentProtocolOf(oid), dso::kProtoClientServer);

  // Failure does not start a dwell window: the next tick retries.
  controller.EvaluateNow();
  EXPECT_EQ(actuator.calls.size(), 2u);
}

TEST(ReplicationController, DwellWindowBlocksImmediateReMigration) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator, [](sim::NodeId node) {
    return static_cast<RegionId>(node);
  });
  FakeActuator actuator;
  ControllerConfig config = TestConfig();
  config.hysteresis = 0.0;  // isolate the dwell knob
  ReplicationController controller(&simulator, &metrics, &actuator, config);

  gls::ObjectId oid = TestOid(5);
  controller.Track(oid, dso::kProtoClientServer);
  Feed(&metrics, oid, &simulator, 30 * kSecond, 4, 40000, 100);
  simulator.Run();
  controller.EvaluateNow();
  ASSERT_EQ(controller.stats().migrations_succeeded, 1u);
  ASSERT_EQ(controller.CurrentProtocolOf(oid), dso::kProtoActiveRepl);

  // The workload flips to rare small reads and frequent huge writes: under
  // the model, cache/invalidate (refetch bounded by the read rate) now beats
  // broadcasting every write — but the object just migrated, so dwell holds.
  Feed(&metrics, oid, &simulator, 45 * kSecond, 4, 1000, 50000,
       /*reads_per_sec=*/2, /*writes_per_sec=*/5);
  simulator.Run();
  controller.EvaluateNow();
  EXPECT_EQ(controller.stats().migrations_succeeded, 1u);
  EXPECT_GE(controller.stats().held_by_dwell, 1u);
  EXPECT_EQ(controller.CurrentProtocolOf(oid), dso::kProtoActiveRepl);

  // Past the window (dwell = 60 s from the migration at t=30 s) the flip is
  // allowed. Keep feeding so the rates stay above min_rate_per_sec.
  Feed(&metrics, oid, &simulator, 95 * kSecond, 4, 1000, 50000,
       /*reads_per_sec=*/2, /*writes_per_sec=*/5);
  simulator.Run();
  controller.EvaluateNow();
  EXPECT_EQ(controller.stats().migrations_succeeded, 2u);
  EXPECT_EQ(controller.CurrentProtocolOf(oid), dso::kProtoCacheInval);
}

TEST(ReplicationController, SerializeRestoreKeepsDecisionMemory) {
  sim::Simulator simulator;
  MetricsRegistry metrics(&simulator, [](sim::NodeId node) {
    return static_cast<RegionId>(node);
  });
  FakeActuator actuator;
  ControllerConfig config = TestConfig();
  config.hysteresis = 0.0;  // the knob under test is dwell persistence
  ReplicationController controller(&simulator, &metrics, &actuator, config);

  gls::ObjectId migrated = TestOid(6);
  gls::ObjectId untouched = TestOid(7);
  controller.Track(migrated, dso::kProtoClientServer);
  controller.Track(untouched, dso::kProtoMasterSlave);
  Feed(&metrics, migrated, &simulator, 30 * kSecond, 4, 40000, 100);
  simulator.Run();
  controller.EvaluateNow();
  ASSERT_EQ(controller.CurrentProtocolOf(migrated), dso::kProtoActiveRepl);

  ByteWriter w;
  controller.Serialize(&w);
  Bytes blob = w.Take();

  ReplicationController restored(&simulator, &metrics, &actuator, config);
  ByteReader r(blob);
  ASSERT_TRUE(restored.Restore(&r).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.CurrentProtocolOf(migrated), dso::kProtoActiveRepl);
  EXPECT_EQ(restored.CurrentProtocolOf(untouched), dso::kProtoMasterSlave);

  // The dwell clock survives too: an immediate flip attempt is still held.
  Feed(&metrics, migrated, &simulator, 45 * kSecond, 4, 1000, 50000,
       /*reads_per_sec=*/2, /*writes_per_sec=*/5);
  simulator.Run();
  restored.EvaluateNow();
  EXPECT_GE(restored.stats().held_by_dwell, 1u);
  EXPECT_EQ(restored.CurrentProtocolOf(migrated), dso::kProtoActiveRepl);
}

}  // namespace
}  // namespace globe::ctl
