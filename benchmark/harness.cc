#include "benchmark/harness.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <new>
#include <set>

#include "src/sim/topology.h"

// ---- Allocation counter ----------------------------------------------------
//
// Counts every operator new in the process. Each thread bumps its own
// cache-line slot with a plain relaxed load/store (no locked instruction), so
// counting stays cheap on the sharded engine's worker threads.

namespace {

constexpr size_t kAllocSlots = 64;
struct alignas(64) AllocSlot {
  std::atomic<uint64_t> count{0};
};
AllocSlot g_alloc_slots[kAllocSlots];
std::atomic<size_t> g_next_alloc_slot{0};
thread_local size_t t_alloc_slot = kAllocSlots;

void CountAllocation() {
  if (t_alloc_slot == kAllocSlots) {
    t_alloc_slot = g_next_alloc_slot.fetch_add(1, std::memory_order_relaxed) % kAllocSlots;
  }
  std::atomic<uint64_t>& slot = g_alloc_slots[t_alloc_slot].count;
  slot.store(slot.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  CountAllocation();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace globe::benchmark {

void WorkloadResult::Violation(std::string what) {
  correct = false;
  if (violations.size() < 32) {  // the first few say enough
    std::fprintf(stderr, "VIOLATION [%s]: %s\n", workload.c_str(), what.c_str());
    violations.push_back(std::move(what));
  }
}

size_t EpisodeCount(const RunOptions& options, double host_s_per_episode) {
  double episodes = options.seconds / (host_s_per_episode * options.scale);
  return std::clamp<size_t>(static_cast<size_t>(episodes + 0.5), 3, 40);
}

void EndToEnd::AppendTo(WorkloadResult* result) const {
  auto attempted = static_cast<double>(result->attempted);
  result->Add("setup_s", Median(setup_s), "s");
  result->Add("goodput_ops_per_s", Median(goodput), "ops/s");
  result->Add("read_p50_ms", Quantile(read_ms, 0.50), "ms");
  result->Add("read_p99_ms", Quantile(read_ms, 0.99), "ms");
  result->Add("within_slo_ratio", Ratio(static_cast<double>(within_slo), attempted), "ratio");
  result->Add("peak_rss_mb", PeakRssMb(), "MB");
  result->Add("fail_ratio", Ratio(static_cast<double>(result->failed), attempted), "ratio");
}

LayerReport::LayerReport() {
  static const std::pair<const char*, const char*> kLayerMetrics[] = {
      // Engine: event and frame volume per op, and the engine's host cost.
      {"sim.events_per_op", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.frames_per_op", "count"},
      {"sim.wan_frames_per_op", "count"},
      {"sim.parallel_window_ratio", "ratio"},
      {"sim.shard_speedup", "x"},
      {"sim.windows", "count"},
      {"sim.parallel_windows", "count"},
      // Virtual self time per read, cold (first bind) and warm.
      {"sim.idle_cold_ms", "ms"},
      {"sim.idle_warm_ms", "ms"},
      {"gdn.cold_ms", "ms"},
      {"gdn.warm_ms", "ms"},
      {"dns.cold_ms", "ms"},
      {"dns.warm_ms", "ms"},
      {"gls.cold_ms", "ms"},
      {"gls.warm_ms", "ms"},
      {"dso.cold_ms", "ms"},
      {"dso.warm_ms", "ms"},
      {"gos.cold_ms", "ms"},
      {"gos.warm_ms", "ms"},
      {"sec.cold_ms", "ms"},
      {"sec.warm_ms", "ms"},
      // Work counts per op at single layers.
      {"dns.frames_per_op", "count"},
      {"dso.bytes_per_read", "bytes"},
      {"dso.frames_per_write", "count"},
      {"gos.frames_per_write", "count"},
      {"gls.frames_per_lookup", "count"},
      {"gls.host_us_per_request", "us"},
      {"sec.host_share", "ratio"},
      {"net.frames_per_op", "count"},
      {"net.bytes_per_op", "bytes"},
      {"net.allocs_per_op", "count"},
      {"net.send_ns_per_frame", "ns"},
      {"gdn.host_us_per_request", "us"},
      // The traced run's own cost and self-checks.
      {"trace.overhead_ratio", "ratio"},
      {"trace.virtual_sum_error", "ratio"},
      {"trace.host_sum_error", "ratio"},
  };
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics_.push_back({name, 0, unit});
  }
}

void LayerReport::Set(const std::string& name, double value) {
  for (Metric& metric : metrics_) {
    if (metric.name == name) {
      metric.value = value;
      return;
    }
  }
  std::fprintf(stderr, "unknown per-layer metric %s\n", name.c_str());
  std::abort();
}

void LayerReport::AppendTo(WorkloadResult* result) const {
  for (const Metric& metric : metrics_) {
    result->metrics.push_back(metric);
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0;
  }
  double sum = 0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

void TrimHeap() { malloc_trim(0); }

uint64_t AllocationCount() {
  uint64_t total = 0;
  for (const AllocSlot& slot : g_alloc_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

PortMeter::PortMeter() : last_(sim::AllocateEphemeralPort()) {}

void PortMeter::Sample() {
  uint16_t now = sim::AllocateEphemeralPort();
  used_ += (static_cast<uint64_t>(now) + kRange - last_) % kRange;
  last_ = now;
}

// ---- Layers ----------------------------------------------------------------

namespace {

constexpr uint16_t kHandshakeSinkPort = 1;  // sec::SecureTransport's handshake flights

bool IsWellKnown(uint16_t port) { return port < sim::kPortClientBase; }

Layer LayerOfPort(uint16_t port) {
  switch (port) {
    case sim::kPortHttp:
      return Layer::kGdn;
    case sim::kPortDns:
    case sim::kPortGnsAuthority:
      return Layer::kDns;
    case sim::kPortGls:
      return Layer::kGls;
    case sim::kPortGos:
      return Layer::kGos;
    case kHandshakeSinkPort:
      return Layer::kSec;
    default:
      return Layer::kDso;
  }
}

}  // namespace

const char* LayerName(Layer layer) {
  static constexpr const char* kNames[] = {"gdn", "dns", "gls", "gos",
                                           "sec", "dso", "idle"};
  return kNames[static_cast<size_t>(layer)];
}

Layer ClassifyFrame(const sim::Endpoint& src, const sim::Endpoint& dst) {
  if (IsWellKnown(dst.port)) {
    return LayerOfPort(dst.port);
  }
  if (IsWellKnown(src.port)) {
    return LayerOfPort(src.port);
  }
  return Layer::kDso;
}

// ---- FrameLedger -----------------------------------------------------------

void FrameLedger::Attach(sim::Network* network) {
  network_ = network;
  network->SetEavesdropper([this](const sim::Endpoint& src, const sim::Endpoint& dst,
                                  ByteSpan payload) {
    Frame frame;
    frame.sent = network_->engine()->Now();
    // The network schedules delivery after exactly this (truncated) delay.
    frame.arrives = frame.sent + static_cast<sim::SimTime>(network_->DeliveryDelayUs(
                                     src.node, dst.node, payload.size()));
    frame.layer = ClassifyFrame(src, dst);
    frame.level =
        src.node == dst.node ? 0 : network_->topology().AscentLevel(src.node, dst.node);
    frame.bytes = static_cast<uint32_t>(payload.size());
    frames_.push_back(frame);
  });
}

void FrameLedger::Detach() {
  if (network_ != nullptr) {
    network_->SetEavesdropper(nullptr);
    network_ = nullptr;
  }
}

std::array<double, kLayerCount> FrameLedger::Attribute(sim::SimTime begin,
                                                       sim::SimTime end) const {
  std::array<double, kLayerCount> charged{};
  // Sweep the interval's breakpoints; between two of them the in-flight set is
  // constant and its newest frame (highest index = latest sent) takes the time.
  struct Edge {
    sim::SimTime at;
    bool start;
    size_t frame;
  };
  std::vector<Edge> edges;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& f = frames_[i];
    if (f.sent >= end || f.arrives <= begin) {
      continue;
    }
    edges.push_back({std::max(f.sent, begin), true, i});
    edges.push_back({std::min(f.arrives, end), false, i});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.at != b.at ? a.at < b.at : a.start < b.start;  // ends before starts
  });
  std::set<size_t> in_flight;
  sim::SimTime cursor = begin;
  for (const Edge& edge : edges) {
    if (edge.at > cursor) {
      Layer owner =
          in_flight.empty() ? Layer::kIdle : frames_[*in_flight.rbegin()].layer;
      charged[static_cast<size_t>(owner)] += static_cast<double>(edge.at - cursor);
      cursor = edge.at;
    }
    if (edge.start) {
      in_flight.insert(edge.frame);
    } else {
      in_flight.erase(edge.frame);
    }
  }
  if (end > cursor) {
    charged[static_cast<size_t>(Layer::kIdle)] += static_cast<double>(end - cursor);
  }
  return charged;
}

// ---- LayerTransport --------------------------------------------------------

const char* HostLayerName(HostLayer layer) {
  static constexpr const char* kNames[] = {"gdn", "dns",    "gls", "gos",   "sec",
                                           "dso", "client", "net", "load"};
  return kNames[static_cast<size_t>(layer)];
}

void HostLedger::Merge(const HostLedger& other) {
  for (size_t i = 0; i < kHostLayerCount; ++i) {
    self_ns[i] += other.self_ns[i];
    calls[i] += other.calls[i];
  }
  for (size_t i = 0; i < kLayerCount; ++i) {
    frames[i] += other.frames[i];
    bytes[i] += other.bytes[i];
  }
  wan_frames += other.wan_frames;
  wan_bytes += other.wan_bytes;
}

uint64_t HostLedger::TotalFrames() const {
  uint64_t total = 0;
  for (uint64_t n : frames) {
    total += n;
  }
  return total;
}

uint64_t HostLedger::TotalBytes() const {
  uint64_t total = 0;
  for (uint64_t n : bytes) {
    total += n;
  }
  return total;
}

uint64_t HostLedger::TotalSelfNs() const {
  uint64_t total = 0;
  for (uint64_t n : self_ns) {
    total += n;
  }
  return total;
}

namespace {

HostLayer ServiceLayer(uint16_t port) {
  switch (LayerOfPort(port)) {
    case Layer::kGdn:
      return HostLayer::kGdn;
    case Layer::kDns:
      return HostLayer::kDns;
    case Layer::kGls:
      return HostLayer::kGls;
    case Layer::kGos:
      return HostLayer::kGos;
    case Layer::kSec:
      return HostLayer::kSec;
    default:
      return HostLayer::kDso;
  }
}

std::atomic<uint64_t> g_transport_generation{1};

}  // namespace

// Per-thread ledgers: each thread that enters the transport gets its own, so
// the sharded engine's workers never share a counter. Spans nest (a handler
// sends; a send may deliver an error inline), and each span's self time
// excludes the spans nested inside it.
struct LayerTransport::Impl {
  struct Open {
    HostLayer layer;
    uint64_t child_ns;
  };
  struct ThreadState {
    HostLedger ledger;
    std::vector<Open> open;  // the thread's span stack
  };

  // Times one span on a thread's ledger.
  class Span {
   public:
    Span(ThreadState* state, HostLayer layer) : state_(state), start_(NowNs()) {
      state_->open.push_back({layer, 0});
    }
    ~Span() {
      uint64_t elapsed = NowNs() - start_;
      Open top = state_->open.back();
      state_->open.pop_back();
      auto index = static_cast<size_t>(top.layer);
      state_->ledger.self_ns[index] += elapsed - std::min(top.child_ns, elapsed);
      ++state_->ledger.calls[index];
      if (!state_->open.empty()) {
        state_->open.back().child_ns += elapsed;
      }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    ThreadState* state_;
    uint64_t start_;
  };

  // The inner clock, with each timer armed while timing is on charged to the
  // layer of the span that armed it.
  class TimedClock : public sim::Clock {
   public:
    explicit TimedClock(LayerTransport* owner) : owner_(owner) {}
    sim::SimTime Now() const override { return owner_->inner_->clock()->Now(); }
    TimerId ScheduleAfter(sim::SimTime delay, std::function<void()> fn) override {
      sim::Clock* inner = owner_->inner_->clock();
      if (!owner_->timing_) {
        return inner->ScheduleAfter(delay, std::move(fn));
      }
      ThreadState& state = owner_->impl_->Local();
      HostLayer layer = state.open.empty() ? HostLayer::kLoad : state.open.back().layer;
      return inner->ScheduleAfter(delay, [owner = owner_, layer, fn = std::move(fn)] {
        if (!owner->timing_) {
          fn();
          return;
        }
        Span span(&owner->impl_->Local(), layer);
        fn();
      });
    }
    bool CancelTimer(TimerId id) override { return owner_->inner_->clock()->CancelTimer(id); }

   private:
    LayerTransport* owner_;
  };

  explicit Impl(LayerTransport* owner) : clock(owner) {}

  ThreadState& Local() {
    thread_local uint64_t cached_generation = 0;
    thread_local ThreadState* cached = nullptr;
    if (cached_generation != generation) {
      std::lock_guard<std::mutex> lock(mu);
      states.push_back(std::make_unique<ThreadState>());
      cached = states.back().get();
      cached_generation = generation;
    }
    return *cached;
  }

  // The handler's layer for a delivery from `from` to an ephemeral port on
  // a node whose hosted service is `home` (kClient if none).
  static HostLayer EphemeralLayer(HostLayer home, const sim::Endpoint& from) {
    return IsWellKnown(from.port) ? home : HostLayer::kDso;
  }

  uint64_t generation = g_transport_generation.fetch_add(1);
  TimedClock clock;
  mutable std::mutex mu;  // guards states and home
  std::vector<std::unique_ptr<ThreadState>> states;
  std::map<sim::NodeId, HostLayer> home;  // first well-known service per node
};

LayerTransport::LayerTransport(sim::Transport* inner, const sim::Topology* topology)
    : inner_(inner), topology_(topology), impl_(std::make_unique<Impl>(this)) {}

LayerTransport::~LayerTransport() = default;

sim::Clock* LayerTransport::clock() { return &impl_->clock; }

void LayerTransport::Send(const sim::Endpoint& src, const sim::Endpoint& dst,
                          ByteSpan payload) {
  Impl::ThreadState& state = impl_->Local();
  auto layer = static_cast<size_t>(ClassifyFrame(src, dst));
  ++state.ledger.frames[layer];
  state.ledger.bytes[layer] += payload.size();
  if (topology_ != nullptr && src.node != dst.node &&
      topology_->AscentLevel(src.node, dst.node) >= 2) {
    ++state.ledger.wan_frames;
    state.ledger.wan_bytes += payload.size();
  }
  if (!timing_) {
    inner_->Send(src, dst, payload);
    return;
  }
  Impl::Span span(&state, HostLayer::kNet);
  inner_->Send(src, dst, payload);
}

void LayerTransport::RegisterPort(sim::NodeId node, uint16_t port,
                                  sim::TransportHandler handler) {
  HostLayer home = HostLayer::kClient;
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    if (IsWellKnown(port)) {
      impl_->home.emplace(node, ServiceLayer(port));
    }
    auto it = impl_->home.find(node);
    if (it != impl_->home.end()) {
      home = it->second;
    }
  }
  bool well_known = IsWellKnown(port);
  HostLayer service = ServiceLayer(port);
  inner_->RegisterPort(
      node, port,
      [this, well_known, service, home,
       handler = std::move(handler)](const sim::TransportDelivery& d) {
        if (!timing_) {
          handler(d);
          return;
        }
        Impl::Span span(&impl_->Local(),
                        well_known ? service : Impl::EphemeralLayer(home, d.src));
        handler(d);
      });
}

void LayerTransport::Measure(HostLayer layer, const std::function<void()>& fn) {
  if (!timing_) {
    fn();
    return;
  }
  Impl::Span span(&impl_->Local(), layer);
  fn();
}

void LayerTransport::UnregisterPort(sim::NodeId node, uint16_t port) {
  inner_->UnregisterPort(node, port);
}

HostLedger LayerTransport::Snapshot() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  HostLedger total;
  for (const auto& state : impl_->states) {
    total.Merge(state->ledger);
  }
  return total;
}

void LayerTransport::Reset() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (auto& state : impl_->states) {
    state->ledger = HostLedger();
  }
}

}  // namespace globe::benchmark
