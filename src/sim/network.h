// Simulated message network over a hierarchical topology.
//
// Every byte a Globe service sends crosses this network, which charges propagation
// latency and serialization time according to the topology's link profile and accounts
// traffic per ascent level. "Wide-area bandwidth is a scarce resource" (paper §3.1) —
// the per-level byte counters are how the benchmarks quantify exactly that.
//
// Failure injection: nodes can be marked down (messages to/from them vanish), messages
// can be dropped with a configurable probability — uniformly or per link —, links can
// be partitioned for a bounded time, nodes can crash (ports detach) and restart, and
// payload bytes can be flipped to exercise the integrity machinery of the secure
// transport. Every probabilistic decision draws from the network's seeded RNG and
// every timed fault runs on the virtual clock, so a failure schedule replays
// byte-identically across runs — the property the chaos suite is built on.
//
// The network keeps one slice of internal state per Simulator shard. On one
// shard nothing is concurrent. On several, the hot mutable state — RNG, traffic
// stats, per-node receive counts, port handler tables — is partitioned per shard:
// a send accounts to the sending shard, a delivery executes on (and touches
// only) the receiving node's shard. The fault tables (down nodes, partitions,
// drop probabilities) stay shared; they are read-only while shards run and may
// only be mutated with all shards parked (idle, or inside an engine barrier
// task) — asserted on every mutator. Aggregate accessors (stats(),
// per_node_received()) drain the per-shard counters into the aggregate view and
// are likewise idle-only.

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/topology.h"
#include "src/sim/transport.h"
#include "src/util/bytes.h"
#include "src/util/rng.h"

namespace globe::sim {

// A delivered message as seen by the receiving handler. The payload is stored
// once, in the in-flight delivery event, and handed out as a pinned view:
// a handler that stashes the view keeps exactly that allocation alive.
struct Delivery {
  Endpoint src;
  Endpoint dst;
  PayloadView payload;
};

using PortHandler = std::function<void(const Delivery&)>;

// Counters per ascent level plus aggregate views.
struct TrafficStats {
  struct PerLevel {
    uint64_t messages = 0;
    uint64_t bytes = 0;
  };
  std::vector<PerLevel> per_level;  // indexed by ascent level (0 = same leaf domain)
  uint64_t loopback_messages = 0;
  uint64_t loopback_bytes = 0;
  uint64_t dropped_messages = 0;      // random loss (uniform or per-link probability)
  uint64_t partitioned_messages = 0;  // swallowed by an active partition
  uint64_t down_node_messages = 0;
  // Every message lost to random loss or a partition, keyed by the (src, dst)
  // node pair it was crossing — so a chaos test can assert *which* link lost
  // traffic. dropped_messages / partitioned_messages stay the aggregate views.
  std::map<std::pair<NodeId, NodeId>, uint64_t> dropped_per_link;

  uint64_t TotalMessages() const;
  uint64_t TotalBytes() const;
  // Bytes at or above the given ascent level; level 2 and up is "wide area" in the
  // default five-level world (country / continent / intercontinental).
  uint64_t BytesAtOrAbove(int level) const;

  void Clear();
  // Adds every counter of `other` into this and zeroes `other`.
  void DrainFrom(TrafficStats* other);
};

struct NetworkOptions {
  LinkProfile profile;
  double drop_probability = 0.0;    // uniform message loss
  double tamper_probability = 0.0;  // flip one payload byte in transit
  uint64_t rng_seed = 0x9e3779b97f4a7c15ULL;
};

class Network {
 public:
  Network(Simulator* engine, const Topology* topology, NetworkOptions options = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Registers the handler for (node, port). Overwrites any previous registration.
  // With several shards this must run on the shard owning `node` (or idle).
  void RegisterPort(NodeId node, uint16_t port, PortHandler handler);
  void UnregisterPort(NodeId node, uint16_t port);

  // Sends a message. Delivery is scheduled after latency + transmit time (+ extra
  // processing delay, used by the secure transport to model crypto CPU cost) on the
  // shard owning the destination node. If the destination port has no handler at
  // delivery time the message is silently lost, like a UDP datagram to a closed port.
  void Send(const Endpoint& src, const Endpoint& dst, Bytes payload,
            double extra_delay_us = 0);

  // Failure injection. All of it is deterministic: probabilities draw from the
  // seeded RNG, timed faults expire on the virtual clock. The fault tables are
  // shared across shards, so mutation requires every shard parked: call these
  // from idle context or a Simulator::ScheduleBarrier task, never from an
  // event running inside a parallel window.
  void SetNodeUp(NodeId node, bool up);
  bool IsNodeUp(NodeId node) const;
  void SetDropProbability(double p);
  void SetTamperProbability(double p);

  // Per-link loss, overriding the uniform drop_probability for messages sent
  // src -> dst. Directed — set both directions for a symmetric lossy link.
  void SetLinkDropProbability(NodeId src, NodeId dst, double p);
  void ClearLinkDropProbability(NodeId src, NodeId dst);

  // Timed bidirectional partition: every message between a and b — in either
  // direction, including ones already in flight — vanishes until now + duration
  // (or HealPartition). Re-partitioning an active pair extends the window.
  void PartitionPair(NodeId a, NodeId b, SimTime duration);
  void HealPartition(NodeId a, NodeId b);
  bool IsPartitioned(NodeId a, NodeId b) const;

  // Crash/restart. CrashNode powers the host off: every port handler detaches
  // (stashed aside) and the node goes down, so traffic to and from it — and
  // anything already in flight — is lost. RestartNode reattaches the stashed
  // handlers and brings the node back up: services return with whatever state
  // their objects kept, which models the paper's §7 persistent directory state
  // (and the RPC layer's dedup tables) surviving a reboot. Tests that want
  // volatile-state loss rebuild services from checkpoints before restarting;
  // ports registered or unregistered while crashed take precedence over the
  // stash at reattach time.
  void CrashNode(NodeId node);
  void RestartNode(NodeId node);
  bool IsCrashed(NodeId node) const { return crashed_.count(node) > 0; }

  // Observation hook: sees every frame as it enters the network (before tampering or
  // drops). Used by tests to play the "attacker tapping the wire" role from §6.2.
  // With several shards the hook runs on whichever shard sends, so it must not
  // touch cross-shard mutable state; the tests that use it run sequentially.
  using Eavesdropper =
      std::function<void(const Endpoint& src, const Endpoint& dst, ByteSpan)>;
  void SetEavesdropper(Eavesdropper e);

  // Aggregate views; drain the per-shard counters first (idle-only).
  const TrafficStats& stats() const;
  TrafficStats* mutable_stats();

  // Messages received per node since the last clear; used for server-load measurements.
  const std::map<NodeId, uint64_t>& per_node_received() const;
  void ClearPerNodeReceived();

  Simulator* engine() { return engine_; }
  const Topology& topology() const { return *topology_; }
  const NetworkOptions& options() const { return options_; }

  // One-way latency for a payload of the given size, as the network would charge it.
  double DeliveryDelayUs(NodeId src, NodeId dst, size_t bytes) const;

 private:
  // Mutable hot state owned by one shard: only that shard's thread touches it
  // while a parallel window runs. Shard 0's RNG is seeded with exactly
  // options.rng_seed so single-shard behaviour matches the historical network
  // byte for byte; shard i adds i golden-ratio increments.
  struct ShardState {
    explicit ShardState(uint64_t seed) : rng(seed) {}
    Rng rng;
    TrafficStats stats;
    std::map<NodeId, uint64_t> per_node_received;
    // Values are shared_ptr so Deliver() can pin the handler it is invoking
    // without copying the closure: a handler may close its own port mid-call.
    std::map<std::pair<NodeId, uint16_t>, std::shared_ptr<PortHandler>> handlers;
  };

  static std::pair<NodeId, NodeId> PairKey(NodeId a, NodeId b) {
    return {std::min(a, b), std::max(a, b)};
  }
  double EffectiveDropProbability(NodeId src, NodeId dst) const;
  void Deliver(Delivery delivery);
  ShardState& ShardOf(NodeId node) {
    return shards_[engine_->ShardOfNode(node)];
  }
  // The shard whose thread is executing (shard 0 when idle): where sends draw
  // randomness and account traffic.
  ShardState& CurrentShard() { return shards_[engine_->current_shard()]; }
  // Folds every shard's counters into the aggregate members. Idle-only.
  void DrainShardCounters() const;

  Simulator* engine_;
  const Topology* topology_;
  NetworkOptions options_;
  mutable std::vector<ShardState> shards_;
  std::map<NodeId, bool> node_down_;  // absent = up
  std::map<std::pair<NodeId, NodeId>, double> link_drop_;    // directed (src, dst)
  std::map<std::pair<NodeId, NodeId>, SimTime> partitions_;  // PairKey -> heals at
  // Port handlers of crashed nodes, waiting for RestartNode. The outer map's
  // structure only changes with shards parked (CrashNode/RestartNode are
  // barrier-only); UnregisterPort may erase inside its own node's inner map.
  std::map<NodeId, std::map<uint16_t, std::shared_ptr<PortHandler>>> crashed_;
  mutable TrafficStats stats_;
  mutable std::map<NodeId, uint64_t> per_node_received_;
  Eavesdropper eavesdropper_;
};

// The simulation-backed Transport: forwards frames to the raw network and runs
// timers on the virtual clock. Mirrors the socket backend's frame-size limit so
// oversized sends fail identically in both worlds.
class PlainTransport : public Transport {
 public:
  explicit PlainTransport(Network* network) : network_(network) {}

  void Send(const Endpoint& src, const Endpoint& dst, ByteSpan payload) override;
  void RegisterPort(NodeId node, uint16_t port, TransportHandler handler) override;
  void UnregisterPort(NodeId node, uint16_t port) override;
  Clock* clock() override { return network_->engine(); }
  double EstimateDeliveryDelayUs(NodeId src, NodeId dst, size_t bytes) const override {
    return network_->DeliveryDelayUs(src, dst, bytes);
  }

  Network* network() { return network_; }

 private:
  Network* network_;
};

}  // namespace globe::sim

#endif  // SRC_SIM_NETWORK_H_
