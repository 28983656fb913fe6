// socket_http: one StandaloneGdnNode on net::SocketTransport over 127.0.0.1,
// the stack a deployed `globe_node` runs, with no simulator anywhere.
//
// The node runs on the calling thread's epoll loop. One client thread keeps
// three HTTP/1.0 GETs in flight (closed loop, a fresh connection per GET, as
// curl or a 2000-era browser would), Zipf over the packages, 9:1 small:large
// files, and checks every body byte for byte against what was published. Each
// episode builds and publishes a fresh node, warms it (every package is bound
// by the HTTPD on its first GET), then measures. Latency is real time from
// connect to the last byte.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstring>
#include <thread>

#include "benchmark/workloads.h"
#include "src/gdn/standalone.h"
#include "src/http/http.h"
#include "src/net/event_loop.h"
#include "src/net/socket_transport.h"
#include "src/util/rng.h"

namespace globe::benchmark {
namespace {

constexpr size_t kPackages = 32;
constexpr size_t kInFlight = 3;
constexpr size_t kSmallBytes = 4 * 1024;
constexpr size_t kLargeBytes = 1024 * 1024;
constexpr double kSloMs = 10;
// How long GETs still in flight at the end of the measured phase may take.
constexpr double kDrainLimitS = 10;

struct Catalog {
  std::vector<std::string> names;
  std::vector<std::array<Bytes, 2>> content;  // [package] {small, large}
  std::vector<uint32_t> rank_to_package;
};

Catalog MakeCatalog(uint64_t seed) {
  Catalog catalog;
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x66);
  for (size_t p = 0; p < kPackages; ++p) {
    catalog.names.push_back("/apps/bench/pkg" + std::to_string(p));
    catalog.content.push_back({rng.RandomBytes(kSmallBytes), rng.RandomBytes(kLargeBytes)});
    catalog.rank_to_package.push_back(static_cast<uint32_t>(p));
  }
  rng.Shuffle(&catalog.rank_to_package);
  return catalog;
}

const char* FileName(size_t file) { return file == 0 ? "small.txt" : "large.tgz"; }

// The load generator: one thread, kInFlight connections at a time.
class HttpLoad {
 public:
  enum Phase : int { kWarmup = 0, kMeasure = 1, kDone = 2 };

  HttpLoad(uint16_t port, const Catalog* catalog, uint64_t seed, double warmup_s,
           double measure_s)
      : port_(port),
        catalog_(catalog),
        rng_(seed),
        zipf_(kPackages, 1.0),
        warmup_s_(warmup_s),
        measure_s_(measure_s) {}

  void Run();

  std::atomic<int> phase{kWarmup};
  // Results, valid once phase == kDone.
  std::vector<double> latency_ms;  // measured, successful GETs
  uint64_t attempted = 0;          // measured GETs started
  uint64_t failed = 0;
  uint64_t wrong = 0;              // 200 responses with the wrong bytes
  double measured_s = 0;

 private:
  struct Slot {
    int fd = -1;
    bool connected = false;
    bool measured = false;
    uint32_t package = 0;
    uint32_t file = 0;
    uint64_t start_ns = 0;
    std::string request;
    size_t sent = 0;
    Bytes response;
  };

  void Start(Slot* slot, bool measured);
  void Finish(Slot* slot, bool transport_ok);
  void Close(Slot* slot);

  uint16_t port_;
  const Catalog* catalog_;
  Rng rng_;
  ZipfSampler zipf_;
  double warmup_s_;
  double measure_s_;
  uint64_t warm_packages_ = 0;  // warm-up GETs so far (each package first)
};

void HttpLoad::Start(Slot* slot, bool measured) {
  // The warm-up first visits every package once, so the measured phase sees
  // bound packages only.
  if (warm_packages_ < kPackages) {
    slot->package = static_cast<uint32_t>(warm_packages_++);
    slot->file = 0;
  } else {
    slot->package = catalog_->rank_to_package[zipf_.Sample(&rng_)];
    slot->file = rng_.UniformInt(10) == 0 ? 1 : 0;
  }
  slot->measured = measured;
  slot->start_ns = NowNs();
  slot->request = "GET " +
                  http::UrlEncode("/packages" + catalog_->names[slot->package] + "/files/" +
                                  FileName(slot->file)) +
                  " HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n";
  slot->sent = 0;
  slot->response.clear();
  slot->connected = false;
  slot->fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (slot->fd < 0) {
    Finish(slot, false);
    return;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(slot->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    Finish(slot, false);
  }
}

void HttpLoad::Close(Slot* slot) {
  if (slot->fd >= 0) {
    close(slot->fd);
    slot->fd = -1;
  }
}

void HttpLoad::Finish(Slot* slot, bool transport_ok) {
  Close(slot);
  double ms = static_cast<double>(NowNs() - slot->start_ns) * 1e-6;
  bool ok = false;
  if (transport_ok) {
    static constexpr char kHeaderEnd[] = "\r\n\r\n";
    auto end = std::search(slot->response.begin(), slot->response.end(), kHeaderEnd,
                           kHeaderEnd + 4);
    bool status_ok = slot->response.size() > 12 &&
                     std::memcmp(slot->response.data() + 9, "200", 3) == 0;
    if (end != slot->response.end() && status_ok) {
      const Bytes& expected = catalog_->content[slot->package][slot->file];
      size_t body = static_cast<size_t>(end - slot->response.begin()) + 4;
      ok = slot->response.size() - body == expected.size() &&
           std::memcmp(slot->response.data() + body, expected.data(), expected.size()) == 0;
      if (!ok) {
        ++wrong;
      }
    }
  }
  if (!slot->measured) {
    return;
  }
  if (ok) {
    latency_ms.push_back(ms);
  } else {
    ++failed;
  }
}

void HttpLoad::Run() {
  std::array<Slot, kInFlight> slots;
  for (Slot& slot : slots) {
    slot.response.reserve(kLargeBytes + 1024);
  }
  uint64_t begin_ns = NowNs();
  uint64_t measure_ns = 0;
  uint64_t last_done_ns = 0;
  auto elapsed_s = [&] { return static_cast<double>(NowNs() - begin_ns) * 1e-9; };
  for (;;) {
    double now = elapsed_s();
    if (phase.load() == kWarmup && now >= warmup_s_ && warm_packages_ >= kPackages) {
      phase.store(kMeasure);
      measure_ns = NowNs();
    }
    bool measuring = phase.load() == kMeasure;
    bool accepting =
        !measuring || static_cast<double>(NowNs() - measure_ns) * 1e-9 < measure_s_;
    std::array<pollfd, kInFlight> fds{};
    size_t active = 0;
    for (Slot& slot : slots) {
      if (slot.fd < 0 && accepting) {
        if (measuring) {
          ++attempted;
        }
        Start(&slot, measuring);
      }
    }
    for (size_t i = 0; i < kInFlight; ++i) {
      fds[i].fd = slots[i].fd;
      fds[i].events = slots[i].fd < 0 ? 0
                      : !slots[i].connected || slots[i].sent < slots[i].request.size()
                          ? POLLOUT
                          : POLLIN;
      active += slots[i].fd >= 0 ? 1 : 0;
    }
    if (active == 0) {
      if (measuring && !accepting) {
        break;
      }
      continue;
    }
    if (measuring && !accepting &&
        static_cast<double>(NowNs() - measure_ns) * 1e-9 > measure_s_ + kDrainLimitS) {
      for (Slot& slot : slots) {
        if (slot.fd >= 0) {
          Finish(&slot, false);  // the node stopped answering
        }
      }
      break;
    }
    if (poll(fds.data(), kInFlight, 1000) < 0 && errno != EINTR) {
      break;
    }
    for (size_t i = 0; i < kInFlight; ++i) {
      Slot& slot = slots[i];
      if (slot.fd < 0 || fds[i].revents == 0) {
        continue;
      }
      if (!slot.connected) {
        int error = 0;
        socklen_t len = sizeof(error);
        getsockopt(slot.fd, SOL_SOCKET, SO_ERROR, &error, &len);
        if (error != 0) {
          Finish(&slot, false);
          continue;
        }
        slot.connected = true;
      }
      if (slot.sent < slot.request.size()) {
        ssize_t n = send(slot.fd, slot.request.data() + slot.sent,
                         slot.request.size() - slot.sent, MSG_NOSIGNAL);
        if (n < 0 && errno != EAGAIN) {
          Finish(&slot, false);
        } else if (n > 0) {
          slot.sent += static_cast<size_t>(n);
        }
        continue;
      }
      uint8_t buffer[64 * 1024];
      for (;;) {
        ssize_t n = recv(slot.fd, buffer, sizeof(buffer), 0);
        if (n > 0) {
          slot.response.insert(slot.response.end(), buffer, buffer + n);
          continue;
        }
        if (n == 0) {
          bool measured = slot.measured;
          Finish(&slot, true);
          if (measured) {
            last_done_ns = NowNs();
          }
        } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
          Finish(&slot, false);
        }
        break;
      }
    }
  }
  for (Slot& slot : slots) {
    Close(&slot);
  }
  measured_s = static_cast<double>(std::max(last_done_ns, measure_ns) - measure_ns) * 1e-9;
  phase.store(kDone);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Episode {
  double setup_s = 0;
  double measured_s = 0;
  std::vector<double> latency_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t allocs = 0;
  HostLedger ledger;
  double loop_s = 0;       // time inside PollOnce, spans excluded
  double loop_cpu_s = 0;   // CPU time of the loop thread
  double server_wall_s = 0;
  uint64_t ports = 0;
};

Episode RunEpisode(const Catalog& catalog, uint64_t seed, double warmup_s, double measure_s,
                   bool timing, WorkloadResult* result) {
  TrimHeap();
  Episode episode;
  PortMeter ports;
  Stopwatch setup;
  net::EventLoop loop;
  net::SocketTransport sockets(&loop);
  // Only a timed episode goes through the decorator.
  std::unique_ptr<LayerTransport> layers;
  sim::Transport* transport = &sockets;
  if (timing) {
    layers = std::make_unique<LayerTransport>(&sockets, nullptr);
    transport = layers.get();
  }
  bool listen_failed = false;
  gdn::StandaloneGdnNode node(transport, {}, [&](sim::NodeId n) {
    listen_failed |= !sockets.Listen(n).ok();
  });
  auto http_port = sockets.ListenHttp(node.httpd_node());
  if (listen_failed || !http_port.ok()) {
    result->Violation("cannot listen on 127.0.0.1");
    return episode;
  }
  gdn::StandaloneGdnNode::Pump pump = [&](const std::function<bool()>& done) {
    if (!done) {
      loop.RunFor(sim::kMillisecond);
      return true;
    }
    return loop.RunUntil(done, 10 * sim::kSecond);
  };
  for (size_t p = 0; p < kPackages; ++p) {
    auto oid = node.PublishPackage(
        catalog.names[p],
        {{FileName(0), catalog.content[p][0]}, {FileName(1), catalog.content[p][1]}}, pump);
    if (!oid.ok()) {
      result->Violation("publish " + catalog.names[p] + ": " + oid.status().ToString());
      return episode;
    }
  }
  // Let the last naming update reach the DNS primary.
  loop.RunFor(20 * sim::kMillisecond);
  episode.setup_s = setup.Seconds();

  HttpLoad load(*http_port, &catalog, seed, warmup_s, measure_s);
  std::thread client([&load] { load.Run(); });
  bool measuring = false;
  uint64_t allocs_before = 0;
  double cpu_before = 0;
  Stopwatch server;
  uint64_t poll_ns = 0;
  while (load.phase.load() != HttpLoad::kDone) {
    if (!measuring && load.phase.load() == HttpLoad::kMeasure) {
      measuring = true;
      if (layers != nullptr) {
        layers->Reset();
        layers->set_timing(true);
      }
      allocs_before = AllocationCount();
      cpu_before = ThreadCpuSeconds();
      server.Reset();
    }
    uint64_t start = NowNs();
    loop.PollOnce(5 * sim::kMillisecond);
    poll_ns += measuring ? NowNs() - start : 0;
  }
  episode.server_wall_s = server.Seconds();
  episode.loop_cpu_s = ThreadCpuSeconds() - cpu_before;
  episode.allocs = AllocationCount() - allocs_before;
  client.join();
  if (layers != nullptr) {
    layers->set_timing(false);
    episode.ledger = layers->Snapshot();
  }
  episode.loop_s =
      static_cast<double>(poll_ns) * 1e-9 - static_cast<double>(episode.ledger.TotalSelfNs()) * 1e-9;
  episode.measured_s = load.measured_s;
  episode.latency_ms = std::move(load.latency_ms);
  episode.attempted = load.attempted;
  episode.failed = load.failed;
  if (load.wrong > 0) {
    result->Violation(std::to_string(load.wrong) + " responses served wrong bytes");
  }
  ports.Sample();
  episode.ports = ports.used();
  if (episode.ports >= PortMeter::kRange) {
    result->Violation("episode used " + std::to_string(episode.ports) +
                      " ephemeral ports; the port counter wrapped onto live ports");
  }
  return episode;
}

double Goodput(const Episode& e) {
  return static_cast<double>(e.latency_ms.size()) / std::max(e.measured_s, 1e-9);
}

}  // namespace

WorkloadResult RunSocketHttp(const RunOptions& options) {
  WorkloadResult result;
  result.workload = "socket_http";
  Catalog catalog = MakeCatalog(options.seed);
  // Full-size episode: 0.5 s warm-up (after the first visit to every
  // package), 3 s measured.
  double warmup_s = 0.5 * options.scale;
  double measure_s = 3.0 * options.scale;

  if (options.trace) {
    LayerReport report;
    RunEpisode(catalog, options.seed, warmup_s, measure_s, false, &result);  // warm-up
    Episode plain = RunEpisode(catalog, options.seed + 1, warmup_s, measure_s, false, &result);
    Episode traced = RunEpisode(catalog, options.seed + 1, warmup_s, measure_s, true, &result);
    for (const Episode* e : {&plain, &traced}) {
      result.attempted += e->attempted;
      result.failed += e->failed;
    }
    double ops = static_cast<double>(std::max<size_t>(traced.latency_ms.size(), 1));
    const HostLedger& l = traced.ledger;
    auto host = [&](HostLayer layer) { return static_cast<size_t>(layer); };
    report.Set("net.frames_per_op", static_cast<double>(l.TotalFrames()) / ops);
    report.Set("net.bytes_per_op", static_cast<double>(l.TotalBytes()) / ops);
    report.Set("net.allocs_per_op",
               static_cast<double>(plain.allocs) /
                   static_cast<double>(std::max<size_t>(plain.latency_ms.size(), 1)));
    report.Set("net.send_ns_per_frame",
               static_cast<double>(l.self_ns[host(HostLayer::kNet)]) /
                   static_cast<double>(std::max<uint64_t>(l.calls[host(HostLayer::kNet)], 1)));
    report.Set("gdn.host_us_per_request",
               static_cast<double>(l.self_ns[host(HostLayer::kGdn)]) / 1000.0 /
                   static_cast<double>(std::max<uint64_t>(l.calls[host(HostLayer::kGdn)], 1)));
    report.Set("gls.host_us_per_request",
               static_cast<double>(l.self_ns[host(HostLayer::kGls)]) / 1000.0 /
                   static_cast<double>(std::max<uint64_t>(l.calls[host(HostLayer::kGls)], 1)));
    report.Set("trace.overhead_ratio", Goodput(traced) / Goodput(plain));
    // The loop thread's wall time should be explained by the spans plus the
    // time the loop spent in PollOnce outside them.
    double explained = static_cast<double>(l.TotalSelfNs()) * 1e-9 + traced.loop_s;
    double error = std::abs(explained - traced.server_wall_s) / traced.server_wall_s;
    report.Set("trace.host_sum_error", error);
    std::printf("  host attribution (loop thread, %.3f s wall, %.3f s CPU):",
                traced.server_wall_s, traced.loop_cpu_s);
    for (size_t i = 0; i < kHostLayerCount; ++i) {
      if (l.self_ns[i] > 0) {
        std::printf(" %s %.3f s", HostLayerName(static_cast<HostLayer>(i)),
                    static_cast<double>(l.self_ns[i]) * 1e-9);
      }
    }
    std::printf(" loop %.3f s; sum error %.1f%%%s\n", traced.loop_s, error * 100,
                error <= kHostSumLimit ? "" : " OVER THE 10% LIMIT");
    report.AppendTo(&result);
    return result;
  }

  EndToEnd e2e;
  size_t count = EpisodeCount(options, /*host_s_per_episode=*/3.9);
  for (size_t i = 0; i < count; ++i) {
    Episode e = RunEpisode(catalog, options.seed * 1000 + i, warmup_s, measure_s, false,
                           &result);
    std::printf("  episode %zu: setup %.3f s, measured %.3f s, %zu ok, %" PRIu64
                " failed, loop CPU %.3f s\n",
                i, e.setup_s, e.measured_s, e.latency_ms.size(), e.failed, e.loop_cpu_s);
    e2e.setup_s.push_back(e.setup_s);
    e2e.goodput.push_back(Goodput(e));
    for (double ms : e.latency_ms) {
      e2e.within_slo += ms <= kSloMs ? 1 : 0;
    }
    e2e.read_ms.insert(e2e.read_ms.end(), e.latency_ms.begin(), e.latency_ms.end());
    result.attempted += e.attempted;
    result.failed += e.failed;
  }
  e2e.AppendTo(&result);
  return result;
}

}  // namespace globe::benchmark
