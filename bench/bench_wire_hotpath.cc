// E13 — the socket backend's wire hot path: bytes, frames and allocations per
// typed RPC over loopback TCP, plus wall-clock throughput.
//
// Unlike the simulated-time experiments, this bench exercises the real epoll
// backend: a client and a server SocketTransport in one process, joined only by
// 127.0.0.1 TCP. Three representative Globe workloads ride the unmodified
// Channel / RpcServer stack:
//   - lookup:       small request, small response (the GLS read path shape),
//   - insert:       a ~1 KB non-idempotent write (at-most-once dedup engaged),
//   - dso.invoke:   tiny request, 1 MB response (an object-server file block).
//
// Frames/op and wire bytes/op are exact protocol properties (request frame +
// response frame, 4-byte length prefix + 12-byte endpoint header each).
// Allocations/op counts every operator-new across client AND server for one
// settled round trip — zero-copy delivery keeps it small and flat regardless
// of payload size, and stable enough that the CI regression gate guards it
// alongside the frame/byte columns. Wall-clock columns are informational:
// loopback throughput is machine-bound.
//
// A second table runs the same lookup through the secure transport over the
// same loopback TCP, in 16-call pipelined bursts whose frames are MAC-verified
// in batches.

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "bench/bench_util.h"
#include "src/net/event_loop.h"
#include "src/net/socket_transport.h"
#include "src/sec/secure_transport.h"
#include "src/sim/rpc.h"

using namespace globe;
using bench::Fmt;

// ---- Process-wide allocation counter. ----
namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

struct OpResult {
  uint64_t frames = 0;      // request + response frames on the wire
  uint64_t wire_bytes = 0;  // both directions, length prefixes included
  uint64_t allocations = 0;
  double wall_us_per_op = 0;
  double mbytes_per_s = 0;
};

// Runs `ops` sequential round trips of `method` and measures the steady state
// (one warmup call first: connection setup, buffer high-water marks).
OpResult MeasureOp(net::EventLoop* loop, net::SocketTransport* client_transport,
                   net::SocketTransport* server_transport, sim::Channel* channel,
                   const sim::Endpoint& server, const char* method,
                   const Bytes& request, int ops) {
  auto round_trip = [&]() {
    bool done = false;
    Status failure = OkStatus();
    channel->Call(server, method, request, [&](Result<sim::PayloadView> r) {
      if (!r.ok()) {
        failure = r.status();
      }
      done = true;
    });
    loop->RunUntil([&]() { return done; }, 30 * sim::kSecond);
    if (!failure.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", method, failure.ToString().c_str());
      std::exit(1);
    }
  };

  round_trip();  // warmup
  client_transport->mutable_stats()->Clear();
  server_transport->mutable_stats()->Clear();
  uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  auto wall_start = std::chrono::steady_clock::now();

  for (int i = 0; i < ops; ++i) {
    round_trip();
  }

  auto wall_end = std::chrono::steady_clock::now();
  uint64_t allocs = g_allocations.load(std::memory_order_relaxed) - allocs_before;
  const net::WireStats& stats = client_transport->stats();

  OpResult result;
  result.frames = (stats.frames_sent + stats.frames_received) / ops;
  result.wire_bytes = (stats.bytes_sent + stats.bytes_received) / ops;
  result.allocations = allocs / static_cast<uint64_t>(ops);
  double total_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall_end - wall_start)
          .count());
  result.wall_us_per_op = total_us / ops;
  result.mbytes_per_s = total_us > 0 ? (static_cast<double>(stats.bytes_sent +
                                                            stats.bytes_received) /
                                        (1024.0 * 1024.0)) /
                                           (total_us / 1'000'000.0)
                                     : 0;
  return result;
}

}  // namespace

int main() {
  bench::Title("E13 bench_wire_hotpath",
               "bytes, frames and allocations per typed RPC over loopback TCP");

  net::EventLoop loop;
  net::SocketTransport client_transport(&loop);
  net::SocketTransport server_transport(&loop);

  constexpr sim::NodeId kServerNode = 1;
  constexpr sim::NodeId kClientNode = 2;
  auto listen = server_transport.Listen(kServerNode);
  if (!listen.ok()) {
    std::fprintf(stderr, "listen failed: %s\n", listen.status().ToString().c_str());
    return 1;
  }
  client_transport.AddRoute(kServerNode, "127.0.0.1", *listen);

  // The three workload shapes. Responses are prebuilt; the per-request copy is
  // part of the measured path (the server really serializes a response).
  const Bytes lookup_response(120, 0x1c);
  const Bytes block_response(1024 * 1024, 0x5e);
  sim::RpcServer server(&server_transport, kServerNode, sim::kPortGls);
  server.RegisterMethod("gls.lookup", [&](const sim::RpcContext&, ByteSpan) {
    return lookup_response;
  });
  server.RegisterMethod(
      "gls.insert",
      [](const sim::RpcContext&, ByteSpan request) -> Result<Bytes> {
        // Touch the batch so the read is not optimized away.
        uint8_t checksum = 0;
        for (uint8_t b : request) {
          checksum ^= b;
        }
        return Bytes{checksum};
      },
      sim::kNonIdempotent);
  server.RegisterMethod("dso.invoke", [&](const sim::RpcContext&, ByteSpan) {
    return block_response;
  });

  sim::Channel channel(&client_transport, kClientNode);
  sim::Endpoint server_endpoint{kServerNode, sim::kPortGls};

  bench::Note("client and server transports joined by real 127.0.0.1 TCP;");
  bench::Note("frames/op, wire bytes/op and allocs/op are deterministic and guarded");
  bench::Note("by CI; wall-clock columns are informational (loopback, machine-bound).");

  bench::Table table({"op", "ops", "frames/op", "wire bytes/op", "allocs/op",
                      "wall us/op", "throughput"});

  struct Workload {
    const char* name;
    const char* method;
    Bytes request;
    int ops;
  };
  const Workload workloads[] = {
      {"lookup", "gls.lookup", Bytes(40, 0x11), 2000},
      {"insert", "gls.insert", Bytes(1024, 0x22), 1000},
      {"dso.invoke 1MB", "dso.invoke", Bytes(24, 0x33), 100},
  };
  for (const Workload& w : workloads) {
    OpResult r = MeasureOp(&loop, &client_transport, &server_transport, &channel,
                           server_endpoint, w.method, w.request, w.ops);
    table.Row({w.name, Fmt("%d", w.ops), Fmt("%llu", (unsigned long long)r.frames),
               Fmt("%llu", (unsigned long long)r.wire_bytes),
               Fmt("%llu", (unsigned long long)r.allocations),
               Fmt("%.1f", r.wall_us_per_op), Fmt("%.1f MB/s", r.mbytes_per_s)});
  }

  bench::Note("");
  bench::Note("every RPC is exactly 2 frames: request out, response back — the");
  bench::Note("codec adds 16 bytes per frame (u32 length + src/dst endpoints) on");
  bench::Note("top of the RPC layer's own header.");

  // ---- Secure transport over the same loopback TCP, with batched MAC
  // verification. One SocketTransport hosts both nodes (the secure layer keeps
  // both ends' session state in a single instance; Listen()'s self-routes loop
  // the frames through real TCP), and each op is a 16-call pipelined burst so
  // the verifier sees real batches per event-loop wake. The crypto cost
  // profile is zeroed: wall-clock measures the actual HMAC work, not simulated
  // delay holds.
  bench::Note("");
  bench::Note("secure lookup: the same 120 B echo through the secure transport in");
  bench::Note("16-call pipelined bursts. verification shares the session's");
  bench::Note("precomputed HMAC midstates and one scratch header across each");
  bench::Note("wake's batch.");

  net::EventLoop secure_loop;
  net::SocketTransport secure_inner(&secure_loop);
  constexpr sim::NodeId kSecureServerNode = 11;
  constexpr sim::NodeId kSecureClientNode = 12;
  for (sim::NodeId node : {kSecureServerNode, kSecureClientNode}) {
    auto port = secure_inner.Listen(node);
    if (!port.ok()) {
      std::fprintf(stderr, "listen failed: %s\n", port.status().ToString().c_str());
      return 1;
    }
  }
  sec::KeyRegistry registry;
  sec::CryptoProfile profile;
  profile.mac_us_per_byte = 0;
  profile.cipher_us_per_byte = 0;
  profile.handshake_cpu_us = 0;
  profile.handshake_bytes = 64;
  profile.handshake_rtts = 0;
  sec::SecureTransport secure(&secure_inner, &registry, profile);
  secure.SetNodeCredential(kSecureServerNode,
                           registry.Register("bench-server", sec::Role::kGdnHost));
  secure.SetNodeCredential(kSecureClientNode,
                           registry.Register("bench-client", sec::Role::kGdnHost));
  secure.SetChannelPolicy([](sim::NodeId, sim::NodeId) {
    sec::ChannelConfig config;
    config.auth = sec::AuthMode::kMutualAuth;
    return config;
  });

  sim::RpcServer secure_server(&secure, kSecureServerNode, sim::kPortGls);
  secure_server.RegisterMethod("gls.lookup", [&](const sim::RpcContext&, ByteSpan) {
    return lookup_response;
  });
  sim::Channel secure_channel(&secure, kSecureClientNode);
  const sim::Endpoint secure_endpoint{kSecureServerNode, sim::kPortGls};
  const Bytes secure_request(40, 0x11);

  constexpr int kBurst = 16;
  auto run_burst = [&]() {
    int burst_done = 0;
    bool burst_failed = false;
    for (int i = 0; i < kBurst; ++i) {
      secure_channel.Call(secure_endpoint, "gls.lookup", secure_request,
                          [&](Result<sim::PayloadView> r) {
                            if (!r.ok()) {
                              burst_failed = true;
                            }
                            ++burst_done;
                          });
    }
    secure_loop.RunUntil([&]() { return burst_done == kBurst; }, 30 * sim::kSecond);
    if (burst_failed || burst_done != kBurst) {
      std::fprintf(stderr, "secure burst failed (%d/%d)\n", burst_done, kBurst);
      std::exit(1);
    }
  };

  bench::Table secure_table({"op", "calls", "frames/op", "wire bytes/op", "allocs/op",
                             "wall us/op", "max batch"});
  constexpr int kBursts = 200;
  run_burst();  // warmup: handshake, connections, buffer high-water marks
  secure.mutable_stats()->Clear();
  secure_inner.mutable_stats()->Clear();
  uint64_t allocs_before = g_allocations.load(std::memory_order_relaxed);
  auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kBursts; ++i) {
    run_burst();
  }
  auto wall_end = std::chrono::steady_clock::now();
  uint64_t calls = static_cast<uint64_t>(kBursts) * kBurst;
  uint64_t allocs =
      g_allocations.load(std::memory_order_relaxed) - allocs_before;
  // One transport carries both directions: frames_sent alone counts each wire
  // frame exactly once (request + response = 2 per call), comparable to the
  // client-side accounting of the plain table above.
  const net::WireStats& wire = secure_inner.stats();
  double total_us = static_cast<double>(
      std::chrono::duration_cast<std::chrono::microseconds>(wall_end - wall_start)
          .count());
  secure_table.Row(
      {"secure lookup batched", Fmt("%llu", (unsigned long long)calls),
       Fmt("%llu", (unsigned long long)(wire.frames_sent / calls)),
       Fmt("%llu", (unsigned long long)(wire.bytes_sent / calls)),
       Fmt("%llu", (unsigned long long)(allocs / calls)),
       Fmt("%.1f", total_us / static_cast<double>(calls)),
       Fmt("%llu", (unsigned long long)secure.stats().max_batch_frames)});

  bench::Note("");
  bench::Note("secure frames carry the session header + 32 B HMAC trailer.");
  return 0;
}
