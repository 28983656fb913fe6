// Shared machinery of the GDN benchmark: run options, the result record every
// workload fills in, sample statistics, and the measurement seams the
// benchmark attaches to the system from outside.
//
// Every per-layer number is measured at a seam the system already exposes:
//   - FrameLedger listens on sim::Network::SetEavesdropper and replays each
//     frame's flight (send time + DeliveryDelayUs) to split an operation's
//     virtual time across layers;
//   - LayerTransport decorates any sim::Transport and times each delivery
//     handler and each Send on the host clock;
//   - the engines' public counters (executed_events, windows_run, ...);
//   - a process-wide operator new counter (harness.cc).
// No workload reads the services' own *Stats structs.

#ifndef BENCHMARK_HARNESS_H_
#define BENCHMARK_HARNESS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/network.h"
#include "src/sim/transport.h"

namespace globe::benchmark {

struct RunOptions {
  uint64_t seed = 1;
  // Run length the caller asked for; each workload turns it into a fixed
  // amount of work (episode count), so a pinned seed replays the same ops.
  double seconds = 20;
  // 1.0 = full episode sizes; the smoke test runs at 1/50.
  double scale = 1.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run reports: the correctness verdict, the op counts and
// every metric, end-to-end and per-layer alike.
struct WorkloadResult {
  std::string workload;
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  // Records an output that is wrong (bad bytes, wrong address, port wrap);
  // any violation makes the run exit non-zero.
  void Violation(std::string what);
};

// Turns the run's --seconds into a fixed episode count, from the host seconds
// one full-size episode takes on the reference machine (4 vCPUs), so a pinned
// seed replays the same operations however fast the machine is.
size_t EpisodeCount(const RunOptions& options, double host_s_per_episode);

// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The end-to-end set every untraced run reports. Each episode adds its setup
// time, its goodput and the latencies of its successful reads.
struct EndToEnd {
  std::vector<double> setup_s;
  std::vector<double> goodput;
  std::vector<double> read_ms;
  uint64_t within_slo = 0;  // ops that succeeded within the workload's limit

  // Appends the set, plus fail_ratio; result->attempted and ->failed must
  // already hold the run's totals.
  void AppendTo(WorkloadResult* result) const;
};

// The traced run's acceptance limits: per-layer virtual times must sum to the
// mean latency within 1% (exact by construction; more is a harness bug and a
// violation), per-layer host times to the wall time within 10% (a timing
// check on a shared machine; reported, not fatal).
constexpr double kVirtualSumLimit = 0.01;
constexpr double kHostSumLimit = 0.10;

// The per-layer metric set. Every workload reports every name (a layer the
// workload leaves idle reads 0), so each traced run has the same shape.
class LayerReport {
 public:
  LayerReport();

  // Sets a metric of the fixed set; aborts on a name outside it.
  void Set(const std::string& name, double value);

  // Appends the whole set to `result`, in a fixed order.
  void AppendTo(WorkloadResult* result) const;

 private:
  std::vector<Metric> metrics_;
};

using bench::PeakRssMb;
using bench::Stopwatch;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 if empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Hands the heap's free memory back to the system. Every episode calls it
// before it builds its world, so each starts on the same empty heap and the
// run's peak RSS is its largest episode's, not what earlier ones fragmented.
void TrimHeap();

// Allocations made by every thread of the process since start (operator new
// replacement in harness.cc).
uint64_t AllocationCount();

// Ephemeral-port accounting. sim::AllocateEphemeralPort() is one process-wide
// counter that wraps after 25,536 ports; once an episode has used that many it
// hands out ports that may still be live on the same node, and frames land on
// the wrong handler. PortMeter samples the counter often enough that no wrap
// hides between two samples, and sums the distance.
class PortMeter {
 public:
  static constexpr uint64_t kRange = 65536 - sim::kPortClientBase;

  PortMeter();
  // Adds the ports handed out since the previous sample (this call's own port
  // included). Must run at least once per kRange allocations.
  void Sample();
  uint64_t used() const { return used_; }

 private:
  uint16_t last_;
  uint64_t used_ = 0;
};

// ---- Layers --------------------------------------------------------------

// The stack's layers as the benchmark tells them apart from outside: by the
// well-known port a frame travels to or from.
enum class Layer : uint8_t { kGdn, kDns, kGls, kGos, kSec, kDso, kIdle, kCount };
constexpr size_t kLayerCount = static_cast<size_t>(Layer::kCount);
const char* LayerName(Layer layer);

// 80 -> gdn, 53/530 -> dns, 700 -> gls, 701 -> gos, the secure transport's
// handshake sink (port 1) -> sec, ephemeral <-> ephemeral -> dso (replica
// to replica traffic of the distributed shared objects).
Layer ClassifyFrame(const sim::Endpoint& src, const sim::Endpoint& dst);

// ---- FrameLedger: virtual-time attribution on the simulated network --------

// Records every frame the network accepts, with the time it will arrive.
// Attach() installs the eavesdropper; the ledger must outlive the network or
// be detached first. Sequential engines only (the hook runs on the sending
// shard).
class FrameLedger {
 public:
  struct Frame {
    sim::SimTime sent = 0;
    sim::SimTime arrives = 0;
    Layer layer = Layer::kDso;
    int level = 0;  // topology ascent level (loopback counts as 0)
    uint32_t bytes = 0;
  };

  void Attach(sim::Network* network);
  void Detach();
  void Clear() { frames_.clear(); }
  const std::vector<Frame>& frames() const { return frames_; }

  // Splits [begin, end) across layers: each microsecond goes to the layer of
  // the latest-sent frame still in flight, or to kIdle when none is. The
  // result sums to end - begin exactly.
  std::array<double, kLayerCount> Attribute(sim::SimTime begin, sim::SimTime end) const;

 private:
  sim::Network* network_ = nullptr;
  std::vector<Frame> frames_;
};

// ---- LayerTransport: host-time attribution at the transport seam -----------

// Host-side layers. A handler on a well-known port is that service's server.
// A handler on an ephemeral port is replica-to-replica DSO traffic when the
// frame came from another ephemeral port; otherwise it is the continuation of
// an RPC client, charged to the service hosted on the same node (a GLS subnode
// forwarding a lookup, say) or, on a node hosting none, to kClient. kNet is
// the inner transport's Send, kLoad the benchmark's own load generation
// (timed through Measure()). A timer's callback is charged to the layer whose
// span armed it.
enum class HostLayer : uint8_t {
  kGdn, kDns, kGls, kGos, kSec, kDso, kClient, kNet, kLoad, kCount
};
constexpr size_t kHostLayerCount = static_cast<size_t>(HostLayer::kCount);
const char* HostLayerName(HostLayer layer);

struct HostLedger {
  std::array<uint64_t, kHostLayerCount> self_ns{};   // time minus nested spans
  std::array<uint64_t, kHostLayerCount> calls{};     // spans: handler runs, sends, timers
  std::array<uint64_t, kLayerCount> frames{};        // frames sent, by frame layer
  std::array<uint64_t, kLayerCount> bytes{};
  uint64_t wan_frames = 0;  // ascent level >= 2 (needs a topology)
  uint64_t wan_bytes = 0;

  void Merge(const HostLedger& other);
  uint64_t TotalFrames() const;
  uint64_t TotalBytes() const;
  uint64_t TotalSelfNs() const;
};

// Decorates a transport and its clock: counts every frame sent (by frame
// layer, and wide-area frames when given a topology) and, while timing is on,
// measures the self time of every delivery handler, Send and timer callback
// on the host clock. Thread-safe for the sharded engine: each thread
// accumulates into its own ledger; Snapshot()/Reset()/set_timing() must run
// while no thread is inside the transport.
class LayerTransport : public sim::Transport {
 public:
  LayerTransport(sim::Transport* inner, const sim::Topology* topology);
  ~LayerTransport() override;

  LayerTransport(const LayerTransport&) = delete;
  LayerTransport& operator=(const LayerTransport&) = delete;

  void set_timing(bool on) { timing_ = on; }

  void Send(const sim::Endpoint& src, const sim::Endpoint& dst, ByteSpan payload) override;
  void RegisterPort(sim::NodeId node, uint16_t port, sim::TransportHandler handler) override;
  void UnregisterPort(sim::NodeId node, uint16_t port) override;
  sim::Clock* clock() override;
  double EstimateDeliveryDelayUs(sim::NodeId src, sim::NodeId dst,
                                 size_t bytes) const override {
    return inner_->EstimateDeliveryDelayUs(src, dst, bytes);
  }

  // Runs fn, timed as a `layer` span when timing is on.
  void Measure(HostLayer layer, const std::function<void()>& fn);

  HostLedger Snapshot() const;
  void Reset();

 private:
  struct Impl;
  sim::Transport* inner_;
  const sim::Topology* topology_;
  bool timing_ = false;
  std::unique_ptr<Impl> impl_;
};

}  // namespace globe::benchmark

#endif  // BENCHMARK_HARNESS_H_
