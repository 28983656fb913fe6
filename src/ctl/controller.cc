#include "src/ctl/controller.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/log.h"
#include "src/util/wire.h"

namespace globe::ctl {

namespace {

// Candidate policies the cost model ranks, in tie-break preference order:
// staying simple (single replica) beats replicating when costs are equal.
constexpr gls::ProtocolId kCandidates[] = {
    dso::kProtoClientServer, dso::kProtoCacheInval, dso::kProtoMasterSlave,
    dso::kProtoActiveRepl};

}  // namespace

ReplicationController::ReplicationController(sim::Clock* clock,
                                             MetricsRegistry* metrics,
                                             PolicyActuator* actuator,
                                             ControllerConfig config)
    : clock_(clock), metrics_(metrics), actuator_(actuator), config_(config) {}

ReplicationController::~ReplicationController() { Stop(); }

void ReplicationController::Track(const gls::ObjectId& oid,
                                  gls::ProtocolId current_protocol) {
  objects_[oid].protocol = current_protocol;
}

void ReplicationController::Untrack(const gls::ObjectId& oid) {
  objects_.erase(oid);
}

void ReplicationController::Start() {
  if (running_ || config_.evaluate_interval == 0) {
    return;
  }
  running_ = true;
  timer_ = clock_->ScheduleAfter(config_.evaluate_interval, [this] { Tick(); });
}

void ReplicationController::Stop() {
  running_ = false;
  if (timer_ != sim::Clock::kNoTimer) {
    clock_->CancelTimer(timer_);
    timer_ = sim::Clock::kNoTimer;
  }
}

void ReplicationController::Tick() {
  timer_ = sim::Clock::kNoTimer;
  EvaluateNow();
  if (running_) {
    timer_ = clock_->ScheduleAfter(config_.evaluate_interval, [this] { Tick(); });
  }
}

gls::ProtocolId ReplicationController::CurrentProtocolOf(
    const gls::ObjectId& oid) const {
  auto it = objects_.find(oid);
  return it == objects_.end() ? 0 : it->second.protocol;
}

double ReplicationController::EstimateCost(gls::ProtocolId protocol,
                                           const AccessStats& stats,
                                           const std::map<RegionId, double>& shares,
                                           RegionId home_region, size_t num_regions,
                                           sim::SimTime now) const {
  double read_rate = stats.ReadRatePerSec(now);
  double write_rate = stats.WriteRatePerSec(now);
  double read_bytes = stats.MeanReadBytes();
  double write_bytes = stats.MeanWriteBytes();
  // State-size proxy: a full read returns the object's content, so the mean
  // read payload is the best measurable stand-in for a state transfer. Never
  // smaller than a write's arguments (state contains what writes put there).
  double state_bytes = std::max(read_bytes, write_bytes);

  auto home_it = shares.find(home_region);
  double home_share = home_it == shares.end() ? 0.0 : home_it->second;
  double secondaries = num_regions > 0 ? static_cast<double>(num_regions - 1) : 0.0;
  // Replicated policies maintain a group (lease renewals, membership upkeep)
  // even when the region selector found no secondary region worth a replica:
  // charge at least one secondary's standing cost so K = 1 never scores 0 and
  // ties central on enumeration order.
  double maintenance =
      config_.replica_maintenance_bytes_per_sec * std::max(secondaries, 1.0);

  switch (protocol) {
    case dso::kProtoClientServer:
      // One replica at home: every remote read and write crosses the WAN.
      // Writes are home-biased the same way reads are (the telemetry tracks
      // write geography too, but reads dominate the GDN's workloads; using the
      // read shares for both keeps the model monotone in the one signal that
      // is always present).
      return read_rate * read_bytes * (1.0 - home_share) +
             write_rate * write_bytes * (1.0 - home_share);
    case dso::kProtoMasterSlave:
      // Reads local everywhere; each write pushes full state to each
      // secondary region.
      return write_rate * state_bytes * secondaries + maintenance;
    case dso::kProtoActiveRepl:
      // Reads local; writes broadcast the invocation (args, not state).
      return write_rate * write_bytes * secondaries + maintenance;
    case dso::kProtoCacheInval: {
      // Each write sends a tiny invalidation per secondary; a secondary
      // region then refetches state on its next read — at most once per
      // write, at most once per read it actually serves.
      double refetch = 0.0;
      for (const auto& [region, share] : shares) {
        if (region == home_region) {
          continue;
        }
        refetch += std::min(share * read_rate, write_rate) * state_bytes;
      }
      return refetch + write_rate * config_.invalidation_bytes * secondaries +
             maintenance;
    }
    default:
      return std::numeric_limits<double>::infinity();
  }
}

PolicyDecision ReplicationController::Decide(const AccessStats& stats,
                                             gls::ProtocolId current,
                                             sim::SimTime now) const {
  std::map<RegionId, double> shares = stats.RegionReadShares(now);

  // Home region: where the heaviest read share lives (deterministic tie-break
  // on the smaller region id via map order).
  RegionId home_region = 0;
  double best_share = -1.0;
  for (const auto& [region, share] : shares) {
    if (share > best_share) {
      best_share = share;
      home_region = region;
    }
  }

  // Replica regions for the replicated policies: every region pulling at
  // least min_region_share of the reads, capped, home always included.
  std::vector<RegionId> replica_regions;
  for (const auto& [region, share] : shares) {
    if (region != home_region && share >= config_.min_region_share &&
        replica_regions.size() + 1 < config_.max_replica_regions) {
      replica_regions.push_back(region);
    }
  }
  size_t num_regions = 1 + replica_regions.size();

  gls::ProtocolId best = current == 0 ? dso::kProtoClientServer : current;
  double current_cost =
      EstimateCost(best, stats, shares, home_region, num_regions, now);
  double best_cost = current_cost;
  for (gls::ProtocolId candidate : kCandidates) {
    if (candidate == best) {
      continue;
    }
    double cost =
        EstimateCost(candidate, stats, shares, home_region, num_regions, now);
    if (cost < best_cost) {
      best_cost = cost;
      best = candidate;
    }
  }

  // Hysteresis: the challenger keeps the incumbency unless it wins by margin.
  if (current != 0 && best != current &&
      best_cost > current_cost * (1.0 - config_.hysteresis)) {
    best = current;
  }

  PolicyDecision decision;
  decision.protocol = best;
  if (best != dso::kProtoClientServer) {
    decision.replica_regions = std::move(replica_regions);
  }
  return decision;
}

void ReplicationController::EvaluateNow() {
  ++stats_.evaluations;
  sim::SimTime now = clock_->Now();

  // Rank migration-worthy objects by absolute estimated savings so the tick
  // budget goes to the hottest objects first.
  struct Planned {
    gls::ObjectId oid;
    PolicyDecision decision;
    double savings;
  };
  std::vector<Planned> planned;

  for (auto& [oid, tracked] : objects_) {
    if (tracked.in_flight) {
      continue;
    }
    const AccessStats* stats = metrics_->Find(oid);
    if (stats == nullptr) {
      continue;
    }
    double rate = stats->ReadRatePerSec(now) + stats->WriteRatePerSec(now);
    if (rate < config_.min_rate_per_sec) {
      continue;
    }
    PolicyDecision decision = Decide(*stats, tracked.protocol, now);
    if (decision.protocol == tracked.protocol) {
      continue;
    }
    // Decide() already applied hysteresis; a differing protocol that reaches
    // here is a real challenger. Dwell still protects fresh migrations.
    if (tracked.last_migration != 0 &&
        now < tracked.last_migration + config_.min_dwell) {
      ++stats_.held_by_dwell;
      continue;
    }
    std::map<RegionId, double> shares = stats->RegionReadShares(now);
    RegionId home = shares.empty() ? 0 : shares.begin()->first;
    double best_share = -1.0;
    for (const auto& [region, share] : shares) {
      if (share > best_share) {
        best_share = share;
        home = region;
      }
    }
    size_t num_regions = 1 + decision.replica_regions.size();
    double incumbent_cost = EstimateCost(tracked.protocol, *stats, shares, home,
                                         num_regions, now);
    double challenger_cost = EstimateCost(decision.protocol, *stats, shares, home,
                                          num_regions, now);
    planned.push_back(Planned{oid, std::move(decision),
                              incumbent_cost - challenger_cost});
  }

  std::sort(planned.begin(), planned.end(),
            [](const Planned& a, const Planned& b) { return a.savings > b.savings; });

  int budget = config_.migration_budget_per_tick;
  for (Planned& plan : planned) {
    if (budget <= 0) {
      ++stats_.held_by_budget;
      continue;
    }
    --budget;
    TrackedObject& tracked = objects_[plan.oid];
    tracked.in_flight = true;
    ++stats_.migrations_started;
    gls::ProtocolId target = plan.decision.protocol;
    GLOG_INFO << "ctl: migrating " << plan.oid.ToHex().substr(0, 8) << " "
              << dso::ProtocolName(tracked.protocol) << " -> "
              << dso::ProtocolName(target) << " (est. savings "
              << plan.savings << " B/s)";
    actuator_->Migrate(
        plan.oid, plan.decision, [this, oid = plan.oid, target](Status s) {
          auto it = objects_.find(oid);
          if (it == objects_.end()) {
            return;  // untracked while the migration was in flight
          }
          it->second.in_flight = false;
          if (s.ok()) {
            it->second.protocol = target;
            it->second.last_migration = clock_->Now();
            ++it->second.migrations;
            ++stats_.migrations_succeeded;
          } else {
            // Keep the old policy; dwell is NOT advanced, so the next tick
            // may retry once whatever failed (a partition, a busy GOS) heals.
            ++stats_.migrations_failed;
            GLOG_WARN << "ctl: migration of " << oid.ToHex().substr(0, 8)
                      << " failed: " << s;
          }
        });
  }
}

void ReplicationController::Serialize(ByteWriter* w) const {
  w->WriteVarint(objects_.size());
  for (const auto& [oid, tracked] : objects_) {
    wire::Put(w, oid);
    w->WriteU16(tracked.protocol);
    w->WriteU64(tracked.last_migration);
    w->WriteU64(tracked.migrations);
    // in_flight is deliberately not persisted: a migration cannot survive the
    // process, so a restored controller starts with nothing in flight.
  }
}

Status ReplicationController::Restore(ByteReader* r) {
  std::map<gls::ObjectId, TrackedObject> objects;
  ASSIGN_OR_RETURN(uint64_t count, r->ReadVarint());
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(gls::ObjectId oid, wire::Read<gls::ObjectId>(r));
    TrackedObject tracked;
    ASSIGN_OR_RETURN(tracked.protocol, r->ReadU16());
    ASSIGN_OR_RETURN(tracked.last_migration, r->ReadU64());
    ASSIGN_OR_RETURN(tracked.migrations, r->ReadU64());
    objects[oid] = tracked;
  }
  objects_ = std::move(objects);
  return OkStatus();
}

}  // namespace globe::ctl
