#include "src/sim/network.h"

#include <cassert>

namespace globe::sim {

uint64_t TrafficStats::TotalMessages() const {
  uint64_t total = loopback_messages;
  for (const auto& level : per_level) {
    total += level.messages;
  }
  return total;
}

uint64_t TrafficStats::TotalBytes() const {
  uint64_t total = loopback_bytes;
  for (const auto& level : per_level) {
    total += level.bytes;
  }
  return total;
}

uint64_t TrafficStats::BytesAtOrAbove(int level) const {
  uint64_t total = 0;
  for (size_t i = static_cast<size_t>(level); i < per_level.size(); ++i) {
    total += per_level[i].bytes;
  }
  return total;
}

void TrafficStats::Clear() {
  per_level.clear();
  loopback_messages = 0;
  loopback_bytes = 0;
  dropped_messages = 0;
  partitioned_messages = 0;
  down_node_messages = 0;
  dropped_per_link.clear();
}

void TrafficStats::DrainFrom(TrafficStats* other) {
  if (per_level.size() < other->per_level.size()) {
    per_level.resize(other->per_level.size());
  }
  for (size_t i = 0; i < other->per_level.size(); ++i) {
    per_level[i].messages += other->per_level[i].messages;
    per_level[i].bytes += other->per_level[i].bytes;
  }
  loopback_messages += other->loopback_messages;
  loopback_bytes += other->loopback_bytes;
  dropped_messages += other->dropped_messages;
  partitioned_messages += other->partitioned_messages;
  down_node_messages += other->down_node_messages;
  for (const auto& [link, count] : other->dropped_per_link) {
    dropped_per_link[link] += count;
  }
  other->Clear();
}

Network::Network(Simulator* engine, const Topology* topology, NetworkOptions options)
    : engine_(engine), topology_(topology), options_(std::move(options)) {
  // One state slice per engine shard. Shard 0 gets exactly the configured
  // seed, so a single-shard (sequential) network draws the identical random
  // stream the pre-sharding implementation drew.
  size_t count = engine_->shard_count();
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards_.emplace_back(options_.rng_seed + i * 0x9E3779B97F4A7C15ULL);
  }
}

void Network::RegisterPort(NodeId node, uint16_t port, PortHandler handler) {
  assert(!engine_->InParallelRegion() ||
         engine_->current_shard() == engine_->ShardOfNode(node));
  ShardOf(node).handlers[{node, port}] =
      std::make_shared<PortHandler>(std::move(handler));
}

void Network::UnregisterPort(NodeId node, uint16_t port) {
  assert(!engine_->InParallelRegion() ||
         engine_->current_shard() == engine_->ShardOfNode(node));
  ShardOf(node).handlers.erase({node, port});
  // A service torn down while its host is crashed must not resurrect at restart.
  if (auto it = crashed_.find(node); it != crashed_.end()) {
    it->second.erase(port);
  }
}

double Network::DeliveryDelayUs(NodeId src, NodeId dst, size_t bytes) const {
  double latency = topology_->LatencyUs(src, dst, options_.profile);
  double transmit = topology_->TransmitUs(src, dst, bytes, options_.profile);
  return latency + transmit + options_.profile.per_message_us;
}

void Network::Send(const Endpoint& src, const Endpoint& dst, Bytes payload,
                   double extra_delay_us) {
  assert(src.node < topology_->num_nodes() && dst.node < topology_->num_nodes());

  // Randomness and accounting for a send belong to the sending context's
  // shard: deterministic, because event placement is deterministic.
  ShardState& shard = CurrentShard();

  if (eavesdropper_) {
    eavesdropper_(src, dst, payload);
  }

  if (!IsNodeUp(src.node) || !IsNodeUp(dst.node)) {
    ++shard.stats.down_node_messages;
    return;
  }
  if (IsPartitioned(src.node, dst.node)) {
    ++shard.stats.partitioned_messages;
    ++shard.stats.dropped_per_link[{src.node, dst.node}];
    return;
  }
  double drop = EffectiveDropProbability(src.node, dst.node);
  if (drop > 0 && shard.rng.Bernoulli(drop)) {
    ++shard.stats.dropped_messages;
    ++shard.stats.dropped_per_link[{src.node, dst.node}];
    return;
  }

  // Traffic accounting keyed by ascent level.
  if (src.node == dst.node) {
    ++shard.stats.loopback_messages;
    shard.stats.loopback_bytes += payload.size();
  } else {
    int level = topology_->AscentLevel(src.node, dst.node);
    if (shard.stats.per_level.size() <= static_cast<size_t>(level)) {
      shard.stats.per_level.resize(level + 1);
    }
    ++shard.stats.per_level[level].messages;
    shard.stats.per_level[level].bytes += payload.size();
  }

  if (options_.tamper_probability > 0 && !payload.empty() &&
      shard.rng.Bernoulli(options_.tamper_probability)) {
    size_t idx = static_cast<size_t>(shard.rng.UniformInt(payload.size()));
    payload[idx] ^= 0x55;
  }

  double delay = DeliveryDelayUs(src.node, dst.node, payload.size()) + extra_delay_us;
  // The payload is stored once, owned by the in-flight event; the handler (and
  // anything it hands the view to) pins that single allocation. The delivery
  // event is homed on the destination node's shard, so the handler runs where
  // the receiving service's state lives.
  Delivery delivery{src, dst, PayloadView::Own(std::move(payload))};
  engine_->ScheduleAfterForNode(
      dst.node, static_cast<SimTime>(delay),
      [this, d = std::move(delivery)]() mutable { Deliver(std::move(d)); });
}

void Network::Deliver(Delivery delivery) {
  // Either endpoint going down while the message was in flight loses it: the
  // model charges the whole path as one hop, so a crashed sender's message is
  // still "on its wire" and dies with it.
  ShardState& shard = ShardOf(delivery.dst.node);
  if (!IsNodeUp(delivery.dst.node) || !IsNodeUp(delivery.src.node)) {
    ++shard.stats.down_node_messages;
    return;
  }
  // A partition that started while the message was in flight cuts it too.
  if (IsPartitioned(delivery.src.node, delivery.dst.node)) {
    ++shard.stats.partitioned_messages;
    ++shard.stats.dropped_per_link[{delivery.src.node, delivery.dst.node}];
    return;
  }
  ++shard.per_node_received[delivery.dst.node];
  auto it = shard.handlers.find({delivery.dst.node, delivery.dst.port});
  if (it == shard.handlers.end()) {
    return;  // closed port: datagram lost
  }
  // Pin the handler: it may close (or replace) its own port mid-call, which
  // would destroy the std::function we are executing.
  std::shared_ptr<PortHandler> handler = it->second;
  (*handler)(delivery);
}

void Network::SetNodeUp(NodeId node, bool up) {
  assert(!engine_->InParallelRegion());
  if (up) {
    node_down_.erase(node);
  } else {
    node_down_[node] = true;
  }
}

bool Network::IsNodeUp(NodeId node) const {
  return node_down_.find(node) == node_down_.end();
}

void Network::SetDropProbability(double p) {
  assert(!engine_->InParallelRegion());
  options_.drop_probability = p;
}

void Network::SetTamperProbability(double p) {
  assert(!engine_->InParallelRegion());
  options_.tamper_probability = p;
}

double Network::EffectiveDropProbability(NodeId src, NodeId dst) const {
  auto it = link_drop_.find({src, dst});
  return it != link_drop_.end() ? it->second : options_.drop_probability;
}

void Network::SetLinkDropProbability(NodeId src, NodeId dst, double p) {
  assert(!engine_->InParallelRegion());
  link_drop_[{src, dst}] = p;
}

void Network::ClearLinkDropProbability(NodeId src, NodeId dst) {
  assert(!engine_->InParallelRegion());
  link_drop_.erase({src, dst});
}

void Network::PartitionPair(NodeId a, NodeId b, SimTime duration) {
  assert(!engine_->InParallelRegion());
  // Re-partitioning an active pair extends the window, never shortens it.
  SimTime& until = partitions_[PairKey(a, b)];
  until = std::max(until, engine_->Now() + duration);
}

void Network::HealPartition(NodeId a, NodeId b) {
  assert(!engine_->InParallelRegion());
  partitions_.erase(PairKey(a, b));
}

bool Network::IsPartitioned(NodeId a, NodeId b) const {
  auto it = partitions_.find(PairKey(a, b));
  return it != partitions_.end() && engine_->Now() < it->second;
}

void Network::CrashNode(NodeId node) {
  assert(!engine_->InParallelRegion());
  if (IsCrashed(node)) {
    return;
  }
  auto& stash = crashed_[node];
  auto& handlers = ShardOf(node).handlers;
  for (auto it = handlers.begin(); it != handlers.end();) {
    if (it->first.first == node) {
      stash[it->first.second] = std::move(it->second);
      it = handlers.erase(it);
    } else {
      ++it;
    }
  }
  SetNodeUp(node, false);
}

void Network::RestartNode(NodeId node) {
  assert(!engine_->InParallelRegion());
  if (auto it = crashed_.find(node); it != crashed_.end()) {
    auto& handlers = ShardOf(node).handlers;
    for (auto& [port, handler] : it->second) {
      // A port freshly registered while the node was crashed (a service rebuilt
      // from a checkpoint) wins over the stashed pre-crash handler.
      handlers.try_emplace({node, port}, std::move(handler));
    }
    crashed_.erase(it);
  }
  SetNodeUp(node, true);
}

void Network::SetEavesdropper(Eavesdropper e) {
  assert(!engine_->InParallelRegion());
  eavesdropper_ = std::move(e);
}

void Network::DrainShardCounters() const {
  assert(!engine_->InParallelRegion());
  for (ShardState& shard : shards_) {
    stats_.DrainFrom(&shard.stats);
    for (auto& [node, count] : shard.per_node_received) {
      per_node_received_[node] += count;
    }
    shard.per_node_received.clear();
  }
}

const TrafficStats& Network::stats() const {
  DrainShardCounters();
  return stats_;
}

TrafficStats* Network::mutable_stats() {
  DrainShardCounters();
  return &stats_;
}

const std::map<NodeId, uint64_t>& Network::per_node_received() const {
  DrainShardCounters();
  return per_node_received_;
}

void Network::ClearPerNodeReceived() {
  DrainShardCounters();
  per_node_received_.clear();
}

// ---------------------------------------------------------- PlainTransport

void PlainTransport::Send(const Endpoint& src, const Endpoint& dst, ByteSpan payload) {
  if (payload.size() > kMaxFrameBytes) {
    // Same refusal the socket backend's codec applies: the frame never leaves
    // the sender, and the caller's deadline/retry machinery observes the loss.
    return;
  }
  // The caller keeps ownership of its (scratch) buffer; the one copy here is
  // the payload entering the in-flight delivery event.
  network_->Send(src, dst, ToBytes(payload));
}

void PlainTransport::RegisterPort(NodeId node, uint16_t port, TransportHandler handler) {
  network_->RegisterPort(node, port, [handler = std::move(handler)](const Delivery& d) {
    handler(TransportDelivery{d.src, d.dst, d.payload, /*peer_principal=*/0,
                              /*integrity_protected=*/false});
  });
}

void PlainTransport::UnregisterPort(NodeId node, uint16_t port) {
  network_->UnregisterPort(node, port);
}

}  // namespace globe::sim
