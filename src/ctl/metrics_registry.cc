#include "src/ctl/metrics_registry.h"

#include "src/util/wire.h"

namespace globe::ctl {

void MetricsRegistry::Serialize(ByteWriter* w) const {
  w->WriteVarint(stats_.size());
  for (const auto& [oid, stats] : stats_) {
    wire::Put(w, oid);
    stats.Serialize(w);
  }
}

Status MetricsRegistry::Restore(ByteReader* r) {
  std::map<gls::ObjectId, AccessStats> stats;
  ASSIGN_OR_RETURN(uint64_t count, r->ReadVarint());
  for (uint64_t i = 0; i < count; ++i) {
    ASSIGN_OR_RETURN(gls::ObjectId oid, wire::Read<gls::ObjectId>(r));
    RETURN_IF_ERROR(stats[oid].Restore(r));
  }
  stats_ = std::move(stats);
  return OkStatus();
}

}  // namespace globe::ctl
