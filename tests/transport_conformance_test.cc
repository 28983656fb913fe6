// Transport conformance: one suite, every backend.
//
// The transport seam promises the layers above it (Channel, RpcServer, the
// whole service stack) the same observable behaviour whatever carries the
// frames. These tests run identically — same source, parameterized fixture —
// against the simulated network (virtual time) and the epoll socket backend
// (real loopback TCP, wall-clock time):
//   - delivery order between one endpoint pair is preserved,
//   - unregistering a port mid-delivery drops frames safely (including a
//     handler unregistering its own port),
//   - frames over kMaxFrameBytes are refused at the send side without harming
//     the connection,
//   - a dead peer surfaces as UNAVAILABLE and retries engage,
//   - a cancelled call schedules no further attempts (the retry-backoff timer
//     regression), and
//   - a typed RPC round-trips.
// Payload-lifetime conformance (the PayloadView contract):
//   - a stashed view observes stable bytes while later traffic churns the
//     backend's receive buffers, until the holder releases it,
//   - a request pinned across a deferred (service-time) dispatch stays valid,
//   - a response view stashed past the channel callback stays valid, and
//   - batched MAC verification rejects exactly the tampered frame in a batch.
// Plus socket-only cases: a frame the secure transport holds back keeps its
// place when the loop runs I/O before the frame's due timer, a real HTTP GET
// over a plain TCP socket fetches a package file from a StandaloneGdnNode, a
// replica read whose frame claims a source node outside the topology is served,
// and read buffers recycle through the pool under connection churn without
// invalidating pinned views.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/dso/wire.h"
#include "src/gdn/package.h"
#include "src/gdn/services.h"
#include "src/gdn/standalone.h"
#include "src/sec/secure_transport.h"
#include "src/net/event_loop.h"
#include "src/net/socket_transport.h"
#include "src/sim/backend.h"
#include "src/sim/rpc.h"
#include "src/util/strings.h"

namespace globe {
namespace {

enum class Backend { kSim, kNet };

// What a conformance test needs from a backend: transports for a "client
// process" and a "server process", node allocation, a way to crash the server
// process, and a pump. On the simulated backend both processes share one
// network and time is virtual; on the socket backend they are two transports
// joined only by loopback TCP and time is the wall clock.
class TransportFixture {
 public:
  virtual ~TransportFixture() = default;
  virtual sim::Transport* client_transport() = 0;
  virtual sim::Transport* server_transport() = 0;
  virtual sim::NodeId NewClientNode() = 0;
  virtual sim::NodeId NewServerNode() = 0;
  // The server process dies: its ports become unreachable, established
  // connections (where connections exist) reset.
  virtual void KillServer() = 0;
  virtual bool RunUntil(const std::function<bool()>& pred, sim::SimTime timeout) = 0;
  virtual void RunFor(sim::SimTime duration) = 0;
};

class SimFixture : public TransportFixture {
 public:
  SimFixture() {
    domain_ = topology_.AddDomain("conformance", sim::kNoDomain);
    network_ = std::make_unique<sim::Network>(&simulator_, &topology_,
                                              sim::NetworkOptions{});
    transport_ = std::make_unique<sim::PlainTransport>(network_.get());
  }

  sim::Transport* client_transport() override { return transport_.get(); }
  sim::Transport* server_transport() override { return transport_.get(); }
  sim::NodeId NewClientNode() override { return topology_.AddNode("client", domain_); }
  sim::NodeId NewServerNode() override {
    sim::NodeId node = topology_.AddNode("server", domain_);
    server_nodes_.push_back(node);
    return node;
  }
  void KillServer() override {
    for (sim::NodeId node : server_nodes_) {
      network_->SetNodeUp(node, false);
    }
  }
  bool RunUntil(const std::function<bool()>& pred, sim::SimTime timeout) override {
    sim::SimTime deadline = simulator_.Now() + timeout;
    while (!pred()) {
      if (simulator_.Now() >= deadline) {
        return false;
      }
      if (!simulator_.Step()) {
        return pred();
      }
    }
    return true;
  }
  void RunFor(sim::SimTime duration) override {
    simulator_.RunUntil(simulator_.Now() + duration);
  }

 private:
  sim::Simulator simulator_;
  sim::Topology topology_;
  sim::DomainId domain_ = sim::kNoDomain;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sim::PlainTransport> transport_;
  std::vector<sim::NodeId> server_nodes_;
};

class NetFixture : public TransportFixture {
 public:
  NetFixture() {
    client_ = std::make_unique<net::SocketTransport>(&loop_);
    server_ = std::make_unique<net::SocketTransport>(&loop_);
  }

  sim::Transport* client_transport() override { return client_.get(); }
  sim::Transport* server_transport() override { return server_.get(); }
  sim::NodeId NewClientNode() override { return next_node_++; }
  sim::NodeId NewServerNode() override {
    sim::NodeId node = next_node_++;
    auto port = server_->Listen(node);
    EXPECT_TRUE(port.ok()) << port.status();
    client_->AddRoute(node, "127.0.0.1", *port);
    return node;
  }
  void KillServer() override {
    // Destroying the transport closes the listeners and every connection;
    // peers observe resets / refused connects.
    server_.reset();
  }
  bool RunUntil(const std::function<bool()>& pred, sim::SimTime timeout) override {
    return loop_.RunUntil(pred, timeout);
  }
  void RunFor(sim::SimTime duration) override { loop_.RunFor(duration); }

 private:
  net::EventLoop loop_;
  std::unique_ptr<net::SocketTransport> client_;
  std::unique_ptr<net::SocketTransport> server_;
  sim::NodeId next_node_ = 1;
};

class TransportConformanceTest : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (GetParam() == Backend::kSim) {
      fixture_ = std::make_unique<SimFixture>();
    } else {
      fixture_ = std::make_unique<NetFixture>();
    }
  }

  std::unique_ptr<TransportFixture> fixture_;
};

TEST_P(TransportConformanceTest, DeliveryOrderIsPreserved) {
  sim::NodeId client = fixture_->NewClientNode();
  sim::NodeId server = fixture_->NewServerNode();

  std::vector<uint8_t> received;
  fixture_->server_transport()->RegisterPort(
      server, 7000, [&](const sim::TransportDelivery& d) {
        if (!d.transport_error) {
          received.push_back(d.payload.span()[0]);
        }
      });

  constexpr int kFrames = 100;
  for (int i = 0; i < kFrames; ++i) {
    fixture_->client_transport()->Send({client, 41000}, {server, 7000},
                                       Bytes{static_cast<uint8_t>(i)});
  }
  ASSERT_TRUE(fixture_->RunUntil(
      [&]() { return received.size() == kFrames; }, 10 * sim::kSecond));
  for (int i = 0; i < kFrames; ++i) {
    EXPECT_EQ(received[i], static_cast<uint8_t>(i)) << "frame " << i << " out of order";
  }
  fixture_->server_transport()->UnregisterPort(server, 7000);
}

TEST_P(TransportConformanceTest, PortUnregisterDuringDelivery) {
  sim::NodeId client = fixture_->NewClientNode();
  sim::NodeId server = fixture_->NewServerNode();
  sim::Transport* st = fixture_->server_transport();

  int a_deliveries = 0;
  int b_deliveries = 0;
  st->RegisterPort(server, 7001, [&](const sim::TransportDelivery& d) {
    if (d.transport_error) {
      return;
    }
    ++a_deliveries;
    // Mid-delivery, tear down the neighbour port AND this very port. Frames
    // already in flight to either must be dropped, not crash.
    st->UnregisterPort(server, 7002);
    st->UnregisterPort(server, 7001);
  });
  st->RegisterPort(server, 7002, [&](const sim::TransportDelivery& d) {
    if (!d.transport_error) {
      ++b_deliveries;
    }
  });

  sim::Transport* ct = fixture_->client_transport();
  ct->Send({client, 41000}, {server, 7001}, Bytes{1});
  ct->Send({client, 41000}, {server, 7001}, Bytes{2});  // self-unregistered
  ct->Send({client, 41000}, {server, 7002}, Bytes{3});  // neighbour-unregistered

  fixture_->RunUntil([&]() { return a_deliveries >= 1; }, 10 * sim::kSecond);
  fixture_->RunFor(200 * sim::kMillisecond);
  EXPECT_EQ(a_deliveries, 1);
  EXPECT_EQ(b_deliveries, 0);
}

TEST_P(TransportConformanceTest, OversizedFrameIsRefusedAtSend) {
  sim::NodeId client = fixture_->NewClientNode();
  sim::NodeId server = fixture_->NewServerNode();

  size_t deliveries = 0;
  size_t last_size = 0;
  fixture_->server_transport()->RegisterPort(
      server, 7003, [&](const sim::TransportDelivery& d) {
        if (!d.transport_error) {
          ++deliveries;
          last_size = d.payload.size();
        }
      });

  fixture_->client_transport()->Send({client, 41000}, {server, 7003},
                                     Bytes(sim::kMaxFrameBytes + 1, 0xAA));
  // The refusal must not poison the path: a legitimate frame still arrives.
  fixture_->client_transport()->Send({client, 41000}, {server, 7003}, Bytes{0x55});

  ASSERT_TRUE(
      fixture_->RunUntil([&]() { return deliveries >= 1; }, 10 * sim::kSecond));
  fixture_->RunFor(100 * sim::kMillisecond);
  EXPECT_EQ(deliveries, 1u);
  EXPECT_EQ(last_size, 1u);
  fixture_->server_transport()->UnregisterPort(server, 7003);
}

TEST_P(TransportConformanceTest, TypedRpcRoundTrip) {
  sim::NodeId client_node = fixture_->NewClientNode();
  sim::NodeId server_node = fixture_->NewServerNode();

  sim::RpcServer server(fixture_->server_transport(), server_node, 7004);
  server.RegisterMethod("echo", [](const sim::RpcContext&, ByteSpan request) {
    return Bytes(request.begin(), request.end());
  });

  sim::Channel channel(fixture_->client_transport(), client_node);
  Result<Bytes> out = Unavailable("pending");
  bool done = false;
  channel.Call(server.endpoint(), "echo", Bytes{1, 2, 3, 4}, [&](Result<sim::PayloadView> r) {
    out = r.ok() ? Result<Bytes>(r->Copy()) : Result<Bytes>(r.status());
    done = true;
  });
  ASSERT_TRUE(fixture_->RunUntil([&]() { return done; }, 10 * sim::kSecond));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, (Bytes{1, 2, 3, 4}));
}

TEST_P(TransportConformanceTest, DeadPeerSurfacesUnavailableAndRetriesEngage) {
  sim::NodeId client_node = fixture_->NewClientNode();
  sim::NodeId server_node = fixture_->NewServerNode();

  auto server = std::make_unique<sim::RpcServer>(fixture_->server_transport(),
                                                 server_node, 7005);
  server->RegisterMethod("ping", [](const sim::RpcContext&, ByteSpan) {
    return Bytes{};
  });

  sim::Channel channel(fixture_->client_transport(), client_node);

  // Prove the path works, and (on the socket backend) establish the connection
  // whose reset the client must then observe.
  bool warm_done = false;
  channel.Call(server->endpoint(), "ping", Bytes{}, [&](Result<sim::PayloadView> r) {
    EXPECT_TRUE(r.ok()) << r.status();
    warm_done = true;
  });
  ASSERT_TRUE(fixture_->RunUntil([&]() { return warm_done; }, 10 * sim::kSecond));

  sim::Endpoint dead = server->endpoint();
  server.reset();  // destroy before the process dies so no dangling handler runs
  fixture_->KillServer();
  fixture_->RunFor(100 * sim::kMillisecond);  // let resets propagate

  sim::CallOptions options;
  options.deadline = 300 * sim::kMillisecond;
  options.retry.attempts = 2;
  options.retry.backoff = 100 * sim::kMillisecond;
  Result<sim::PayloadView> out = Unavailable("pending");
  bool done = false;
  channel.Call(
      dead, "ping", Bytes{},
      [&](Result<sim::PayloadView> r) {
        out = std::move(r);
        done = true;
      },
      options);
  ASSERT_TRUE(fixture_->RunUntil([&]() { return done; }, 30 * sim::kSecond));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable) << out.status();
  EXPECT_GE(channel.stats().retries, 1u);
}

// Regression for the retry-backoff timer lifecycle: cancelling a call while it
// waits out the backoff between attempts must cancel the pending resend. Before
// the timer split, a stale backoff timer could fire after Cancel() and launch
// another attempt at the server.
TEST_P(TransportConformanceTest, CancelledCallSchedulesNoFurtherAttempts) {
  sim::NodeId client_node = fixture_->NewClientNode();
  sim::NodeId server_node = fixture_->NewServerNode();

  int executions = 0;
  sim::RpcServer server(fixture_->server_transport(), server_node, 7006);
  server.RegisterMethod("flaky", [&](const sim::RpcContext&, ByteSpan) -> Result<Bytes> {
    ++executions;
    return Unavailable("try again");  // retriable: the client schedules a backoff
  });

  sim::Channel channel(fixture_->client_transport(), client_node);
  sim::CallOptions options;
  options.deadline = 5 * sim::kSecond;
  options.retry.attempts = 3;
  options.retry.backoff = 800 * sim::kMillisecond;

  bool callback_ran = false;
  sim::CallHandle call = channel.Call(
      {server_node, 7006}, "flaky", Bytes{},
      [&](Result<sim::PayloadView>) { callback_ran = true; }, options);

  // First attempt executes and its UNAVAILABLE answer lands; the call is now
  // sitting in the 800 ms backoff before attempt two.
  ASSERT_TRUE(fixture_->RunUntil([&]() { return executions == 1; }, 10 * sim::kSecond));
  fixture_->RunFor(100 * sim::kMillisecond);
  ASSERT_TRUE(call.active());

  call.Cancel();
  EXPECT_FALSE(call.active());

  // Ride well past where attempts two and three would have fired.
  fixture_->RunFor(3 * sim::kSecond);
  EXPECT_EQ(executions, 1) << "a cancelled call sent another attempt";
  EXPECT_FALSE(callback_ran);
  EXPECT_EQ(channel.stats().cancelled, 1u);
}

// ---- Payload-lifetime conformance: the PayloadView contract. ----

// A handler stashes the delivery's view without copying; 64 further frames
// then churn the receive path (on the socket backend this forces the
// connection to swap its pinned read buffer). The stashed bytes must read
// back unchanged until the holder releases the pin. Under ASan, a backend
// that recycled the buffer out from under the view fails here loudly.
TEST_P(TransportConformanceTest, StashedViewObservesStableBytesUnderBufferChurn) {
  sim::NodeId client = fixture_->NewClientNode();
  sim::NodeId server = fixture_->NewServerNode();

  Bytes first(4096);
  for (size_t i = 0; i < first.size(); ++i) {
    first[i] = static_cast<uint8_t>(i * 7 + 3);
  }

  sim::PayloadView stashed;
  size_t churn_seen = 0;
  fixture_->server_transport()->RegisterPort(
      server, 7007, [&](const sim::TransportDelivery& d) {
        if (d.transport_error) {
          return;
        }
        if (stashed.empty()) {
          stashed = d.payload;  // pin the view, no copy
        } else {
          ++churn_seen;
        }
      });

  fixture_->client_transport()->Send({client, 41000}, {server, 7007}, first);
  ASSERT_TRUE(
      fixture_->RunUntil([&]() { return !stashed.empty(); }, 10 * sim::kSecond));

  constexpr size_t kChurnFrames = 64;
  for (size_t i = 0; i < kChurnFrames; ++i) {
    fixture_->client_transport()->Send({client, 41000}, {server, 7007},
                                       Bytes(4096, static_cast<uint8_t>(0xC0 + i)));
  }
  ASSERT_TRUE(fixture_->RunUntil([&]() { return churn_seen == kChurnFrames; },
                                 10 * sim::kSecond));

  ASSERT_EQ(stashed.size(), first.size());
  EXPECT_TRUE(std::equal(stashed.span().begin(), stashed.span().end(), first.begin()))
      << "stashed view changed underneath its pin";
  stashed.Reset();  // release: the backing buffer may now return to the pool
  fixture_->server_transport()->UnregisterPort(server, 7007);
}

// Regression for the deferred-dispatch path: with a service time set, the
// server parses the request on arrival but dispatches it only when a virtual
// CPU frees up. The request payload is a pinned view; churn traffic arriving
// on the same connection in between must not invalidate it.
TEST_P(TransportConformanceTest, DeferredDispatchPinsRequestAcrossServiceTime) {
  sim::NodeId client_node = fixture_->NewClientNode();
  sim::NodeId server_node = fixture_->NewServerNode();

  Bytes request(2048);
  for (size_t i = 0; i < request.size(); ++i) {
    request[i] = static_cast<uint8_t>(i * 13 + 1);
  }

  sim::RpcServer server(fixture_->server_transport(), server_node, 7008);
  server.set_service_time(50 * sim::kMillisecond);
  server.RegisterMethod("echo", [](const sim::RpcContext&, ByteSpan req) {
    return Bytes(req.begin(), req.end());
  });
  // A raw port on the same node: its frames share the connection (and thus the
  // read buffer) with the queued request.
  size_t churn_seen = 0;
  fixture_->server_transport()->RegisterPort(
      server_node, 7018, [&](const sim::TransportDelivery& d) {
        if (!d.transport_error) {
          ++churn_seen;
        }
      });

  sim::Channel channel(fixture_->client_transport(), client_node);
  Result<Bytes> out = Unavailable("pending");
  bool done = false;
  channel.Call(server.endpoint(), "echo", request, [&](Result<sim::PayloadView> r) {
    out = r.ok() ? Result<Bytes>(r->Copy()) : Result<Bytes>(r.status());
    done = true;
  });
  constexpr size_t kChurnFrames = 32;
  for (size_t i = 0; i < kChurnFrames; ++i) {
    fixture_->client_transport()->Send({client_node, 41000}, {server_node, 7018},
                                       Bytes(2048, static_cast<uint8_t>(i)));
  }

  ASSERT_TRUE(fixture_->RunUntil([&]() { return done; }, 30 * sim::kSecond));
  ASSERT_TRUE(out.ok()) << out.status();
  EXPECT_EQ(*out, request) << "request bytes changed while waiting for a worker";
  EXPECT_EQ(churn_seen, kChurnFrames);
  fixture_->server_transport()->UnregisterPort(server_node, 7018);
}

// A channel callback keeps the Result<PayloadView> past Finalize — the other
// way a view legitimately outlives its delivery. 32 further calls churn the
// same connection before the stash is read.
TEST_P(TransportConformanceTest, StashedResponseViewSurvivesLaterTraffic) {
  sim::NodeId client_node = fixture_->NewClientNode();
  sim::NodeId server_node = fixture_->NewServerNode();

  sim::RpcServer server(fixture_->server_transport(), server_node, 7009);
  server.RegisterMethod("echo", [](const sim::RpcContext&, ByteSpan req) {
    return Bytes(req.begin(), req.end());
  });

  Bytes expected(1024);
  for (size_t i = 0; i < expected.size(); ++i) {
    expected[i] = static_cast<uint8_t>(i * 31 + 7);
  }

  sim::Channel channel(fixture_->client_transport(), client_node);
  Result<sim::PayloadView> saved = Unavailable("pending");
  bool first_done = false;
  channel.Call(server.endpoint(), "echo", expected, [&](Result<sim::PayloadView> r) {
    saved = std::move(r);  // stash the pinned response past the callback
    first_done = true;
  });
  ASSERT_TRUE(fixture_->RunUntil([&]() { return first_done; }, 10 * sim::kSecond));

  size_t later_done = 0;
  for (size_t i = 0; i < 32; ++i) {
    channel.Call(server.endpoint(), "echo", Bytes(1024, static_cast<uint8_t>(i)),
                 [&](Result<sim::PayloadView> r) {
                   if (r.ok()) {
                     ++later_done;
                   }
                 });
  }
  ASSERT_TRUE(
      fixture_->RunUntil([&]() { return later_done == 32; }, 30 * sim::kSecond));

  ASSERT_TRUE(saved.ok()) << saved.status();
  EXPECT_EQ(saved->Copy(), expected) << "stashed response changed under later traffic";
}

// A decorator that corrupts the Nth data frame on its way into the backend —
// the wire attacker sitting between the secure layer and the transport.
class TamperTransport : public sim::Transport {
 public:
  explicit TamperTransport(sim::Transport* inner) : inner_(inner) {}

  void set_tamper_index(int index) { tamper_index_ = index; }
  int data_frames() const { return data_frames_; }

  void Send(const sim::Endpoint& src, const sim::Endpoint& dst,
            ByteSpan payload) override {
    // Port 1 is the secure transport's synthetic handshake sink; only count
    // (and only corrupt) data frames.
    if (dst.port != 1 && data_frames_++ == tamper_index_) {
      Bytes corrupted = ToBytes(payload);
      corrupted.back() ^= 0x01;  // last byte = last MAC byte
      inner_->Send(src, dst, corrupted);
      return;
    }
    inner_->Send(src, dst, payload);
  }
  void RegisterPort(sim::NodeId node, uint16_t port,
                    sim::TransportHandler handler) override {
    inner_->RegisterPort(node, port, std::move(handler));
  }
  void UnregisterPort(sim::NodeId node, uint16_t port) override {
    inner_->UnregisterPort(node, port);
  }
  sim::Clock* clock() override { return inner_->clock(); }
  double EstimateDeliveryDelayUs(sim::NodeId src, sim::NodeId dst,
                                 size_t bytes) const override {
    return inner_->EstimateDeliveryDelayUs(src, dst, bytes);
  }

 private:
  sim::Transport* inner_;
  int tamper_index_ = -1;
  int data_frames_ = 0;
};

// Batched verification must fail frames individually: one corrupted frame in
// a burst is rejected, its batch-mates deliver in order. Runs the secure
// transport over both backends (one shared instance holds both ends' session
// state; on the socket backend Listen()'s self-route loops the frames through
// real TCP).
TEST_P(TransportConformanceTest, BatchedMacVerifyRejectsExactlyTheTamperedFrame) {
  sim::NodeId client = fixture_->NewClientNode();
  sim::NodeId server = fixture_->NewServerNode();

  TamperTransport tamper(fixture_->server_transport());
  sec::KeyRegistry registry;
  sec::CryptoProfile profile;
  profile.mac_us_per_byte = 0;
  profile.cipher_us_per_byte = 0;
  profile.handshake_cpu_us = 0;
  profile.handshake_bytes = 64;
  profile.handshake_rtts = 0;
  sec::SecureTransport secure(&tamper, &registry, profile);

  secure.SetNodeCredential(client, registry.Register("conf-client", sec::Role::kGdnHost));
  secure.SetNodeCredential(server, registry.Register("conf-server", sec::Role::kGdnHost));
  secure.SetChannelPolicy([](sim::NodeId, sim::NodeId) {
    sec::ChannelConfig config;
    config.auth = sec::AuthMode::kMutualAuth;
    return config;
  });

  std::vector<uint8_t> delivered;
  secure.RegisterPort(server, 7010, [&](const sim::TransportDelivery& d) {
    if (!d.transport_error) {
      delivered.push_back(d.payload.span()[0]);
    }
  });

  // Frame 0 establishes the session and drains the handshake.
  secure.Send({client, 41000}, {server, 7010}, Bytes{0});
  ASSERT_TRUE(
      fixture_->RunUntil([&]() { return delivered.size() == 1; }, 10 * sim::kSecond));

  // A burst of five; the third is corrupted on the wire.
  tamper.set_tamper_index(tamper.data_frames() + 2);
  for (uint8_t i = 1; i <= 5; ++i) {
    secure.Send({client, 41000}, {server, 7010}, Bytes{i});
  }
  ASSERT_TRUE(
      fixture_->RunUntil([&]() { return delivered.size() == 5; }, 10 * sim::kSecond));
  fixture_->RunFor(100 * sim::kMillisecond);

  EXPECT_EQ(delivered, (std::vector<uint8_t>{0, 1, 2, 4, 5}))
      << "exactly the tampered frame must be missing";
  EXPECT_EQ(secure.stats().mac_failures, 1u);
  EXPECT_GE(secure.stats().verify_batches, 2u);
  EXPECT_EQ(secure.stats().batched_frames, 6u);
  if (GetParam() == Backend::kSim) {
    // On virtual time the whole burst lands in one wake: one flush of five.
    EXPECT_EQ(secure.stats().max_batch_frames, 5u);
  }
  secure.UnregisterPort(server, 7010);
}

INSTANTIATE_TEST_SUITE_P(Backends, TransportConformanceTest,
                         ::testing::Values(Backend::kSim, Backend::kNet),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return info.param == Backend::kSim ? "sim" : "net";
                         });

// ---- Socket-only: the secure transport's hold on a real event loop. ----

// The loop may run I/O before a timer that is already due. A frame sent then
// must still queue behind the frame held ahead of it (here for its ~2 ms MAC
// cost), or it overtakes that frame and the receiver rejects the held one as a
// replay.
TEST(SecureTransportOnSockets, FrameSentWhileAHeldTimerIsLateKeepsItsPlace) {
  net::EventLoop loop;
  net::SocketTransport sockets(&loop);
  sim::NodeId client = 1;
  sim::NodeId server = 2;
  ASSERT_TRUE(sockets.Listen(server).ok());

  sec::KeyRegistry registry;
  sec::CryptoProfile profile;  // MAC cost 0.01 us/byte: 200 KB is held ~2 ms
  profile.handshake_cpu_us = 0;
  profile.handshake_bytes = 64;
  profile.handshake_rtts = 0;
  sec::SecureTransport secure(&sockets, &registry, profile);
  secure.SetNodeCredential(client, registry.Register("held-client", sec::Role::kGdnHost));
  secure.SetNodeCredential(server, registry.Register("held-server", sec::Role::kGdnHost));
  secure.SetChannelPolicy([](sim::NodeId, sim::NodeId) {
    sec::ChannelConfig config;
    config.auth = sec::AuthMode::kMutualAuth;
    return config;
  });

  std::vector<size_t> sizes;
  secure.RegisterPort(server, 7020, [&](const sim::TransportDelivery& d) {
    if (!d.transport_error) {
      sizes.push_back(d.payload.span().size());
    }
  });
  secure.Send({client, 41000}, {server, 7020}, Bytes{0});  // establishes the session
  ASSERT_TRUE(loop.RunUntil([&]() { return sizes.size() == 1; }, 10 * sim::kSecond));

  constexpr size_t kLarge = 200 * 1024;
  secure.Send({client, 41000}, {server, 7020}, Bytes(kLarge, 0x5a));
  // Outlast the hold without turning the loop: its timer is due but not run.
  auto spin_until = std::chrono::steady_clock::now() + std::chrono::milliseconds(5);
  while (std::chrono::steady_clock::now() < spin_until) {
  }
  secure.Send({client, 41000}, {server, 7020}, Bytes{1});

  loop.RunUntil([&]() { return sizes.size() == 3; }, 5 * sim::kSecond);
  EXPECT_EQ(sizes, (std::vector<size_t>{1, kLarge, 1}));
  EXPECT_EQ(secure.stats().replay_rejects, 0u);
  secure.UnregisterPort(server, 7020);
}

// ---- Socket-only end to end: plain HTTP over a real TCP socket. ----

namespace {

// A minimal blocking HTTP/1.0 client, run on its own thread while the node's
// event loop turns on the test thread. Returns the raw response text.
std::string BlockingHttpGet(uint16_t port, const std::string& target) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return "";
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return "";
  }
  std::string request = "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

}  // namespace

TEST(SocketTransportEndToEnd, HttpGetFetchesPublishedPackage) {
  net::EventLoop loop;
  net::SocketTransport transport(&loop);

  gdn::StandaloneGdnNode node(&transport, {}, [&](sim::NodeId n) {
    auto port = transport.Listen(n);
    ASSERT_TRUE(port.ok()) << port.status();
  });
  auto http_port = transport.ListenHttp(node.httpd_node(), 0);
  ASSERT_TRUE(http_port.ok()) << http_port.status();

  gdn::StandaloneGdnNode::Pump pump = [&](const std::function<bool()>& done) {
    if (!done) {
      loop.RunFor(200 * sim::kMillisecond);
      return true;
    }
    return loop.RunUntil(done, 10 * sim::kSecond);
  };
  const std::string body_text = "conformance suite payload\n";
  auto oid = node.PublishPackage("/tests/Conformance",
                                 {{"data.txt", ToBytes(body_text)}}, pump);
  ASSERT_TRUE(oid.ok()) << oid.status();

  std::atomic<bool> fetched{false};
  std::string response;
  std::thread client([&]() {
    response = BlockingHttpGet(*http_port, "/packages/tests/Conformance/files/data.txt");
    fetched = true;
  });
  EXPECT_TRUE(loop.RunUntil([&]() { return fetched.load(); }, 30 * sim::kSecond));
  client.join();

  ASSERT_FALSE(response.empty()) << "no HTTP response over the socket";
  EXPECT_NE(response.find("200"), std::string::npos) << response.substr(0, 200);
  EXPECT_NE(response.find(body_text), std::string::npos);
  EXPECT_GE(transport.stats().http_requests, 1u);
}

// Several raw GETs in flight at once: each reply closes its connection and
// drops that connection's learned reply route while the other clients' routes
// are still live, so the close must not touch the route it just erased.
TEST(SocketTransportEndToEnd, ConcurrentHttpGetsAllSucceed) {
  net::EventLoop loop;
  net::SocketTransport transport(&loop);

  gdn::StandaloneGdnNode node(&transport, {}, [&](sim::NodeId n) {
    auto port = transport.Listen(n);
    ASSERT_TRUE(port.ok()) << port.status();
  });
  auto http_port = transport.ListenHttp(node.httpd_node(), 0);
  ASSERT_TRUE(http_port.ok()) << http_port.status();

  gdn::StandaloneGdnNode::Pump pump = [&](const std::function<bool()>& done) {
    if (!done) {
      loop.RunFor(200 * sim::kMillisecond);
      return true;
    }
    return loop.RunUntil(done, 10 * sim::kSecond);
  };
  const std::string body_text = "fetched by many clients at once\n";
  auto oid = node.PublishPackage("/tests/Concurrent",
                                 {{"data.txt", ToBytes(body_text)}}, pump);
  ASSERT_TRUE(oid.ok()) << oid.status();

  constexpr int kClients = 8;
  std::atomic<int> fetched{0};
  std::vector<std::string> responses(kClients);
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i]() {
      responses[i] =
          BlockingHttpGet(*http_port, "/packages/tests/Concurrent/files/data.txt");
      ++fetched;
    });
  }
  EXPECT_TRUE(loop.RunUntil([&]() { return fetched.load() == kClients; },
                            30 * sim::kSecond));
  for (std::thread& client : clients) {
    client.join();
  }

  for (const std::string& response : responses) {
    EXPECT_NE(response.find("200"), std::string::npos) << response.substr(0, 200);
    EXPECT_NE(response.find(body_text), std::string::npos);
  }
  EXPECT_GE(transport.stats().http_requests, static_cast<uint64_t>(kClients));
}

// A GOS's access telemetry maps each reader to a country, and on this backend
// the reader's NodeId is whatever the frame header claims. Reads from a node
// outside the topology count in country 0's region, and the replica goes on
// serving.
TEST(SocketTransportEndToEnd, ReadFromNodeOutsideTheTopologyIsServed) {
  net::EventLoop loop;
  net::SocketTransport server(&loop);
  sim::Topology topology;
  sim::DomainId root = topology.AddDomain("root", sim::kNoDomain);
  std::vector<sim::DomainId> countries = {topology.AddDomain("a", root),
                                          topology.AddDomain("b", root)};
  sec::KeyRegistry registry;
  std::map<sim::NodeId, uint16_t> ports;
  gdn::GdnServices services(&server, &topology, &registry, countries, {},
                            [&](sim::NodeId n, std::string_view) {
                              auto port = server.Listen(n);
                              ASSERT_TRUE(port.ok()) << port.status();
                              ports[n] = *port;
                            });
  gdn::GdnServices::Pump pump = [&](const std::function<bool()>& done) {
    if (!done) {
      loop.RunFor(200 * sim::kMillisecond);
      return true;
    }
    return loop.RunUntil(done, 10 * sim::kSecond);
  };
  auto oid = services.PublishPackage("/tests/Stranger", {{"data.txt", ToBytes("x\n")}},
                                     dso::kProtoMasterSlave, /*master_country=*/0, {},
                                     {}, pump);
  ASSERT_TRUE(oid.ok()) << oid.status();
  sim::Endpoint replica = services.GosOf(0)->FindReplica(*oid)->master_endpoint();

  net::SocketTransport client(&loop);
  client.AddRoute(replica.node, "127.0.0.1", ports[replica.node]);
  auto stranger = static_cast<sim::NodeId>(topology.num_nodes() + 1000);
  sim::Channel channel(&client, stranger);
  auto reads = [&]() -> uint64_t {
    const ctl::AccessStats* stats = services.GosOf(0)->metrics()->Find(*oid);
    return stats == nullptr ? 0 : stats->total_reads();
  };
  const uint64_t reads_before = reads();
  for (int i = 0; i < 2; ++i) {
    Result<Bytes> listing = Unavailable("pending");
    bool answered = false;
    dso::kDsoInvoke.Call(&channel, replica, gdn::pkg::kListContents.Marshal({}),
                         [&](Result<Bytes> r) {
                           listing = std::move(r);
                           answered = true;
                         });
    ASSERT_TRUE(loop.RunUntil([&] { return answered; }, 10 * sim::kSecond));
    ASSERT_TRUE(listing.ok()) << listing.status();
  }
  EXPECT_EQ(reads(), reads_before + 2);
}

// Connection churn: each short-lived client connection acquires a read buffer
// from the server's pool and returns it on close — except the one still pinned
// by a stashed view, which must keep its bytes until released. Later accepts
// must observe freelist hits.
TEST(SocketTransportEndToEnd, ReadBuffersRecycleUnderConnectionChurn) {
  net::EventLoop loop;
  net::SocketTransport server(&loop);
  const sim::NodeId node = 1;
  auto port = server.Listen(node);
  ASSERT_TRUE(port.ok()) << port.status();

  sim::PayloadView stashed;
  Bytes expected;
  size_t frames = 0;
  server.RegisterPort(node, 7100, [&](const sim::TransportDelivery& d) {
    if (d.transport_error) {
      return;
    }
    ++frames;
    if (stashed.empty()) {
      stashed = d.payload;  // pins the first connection's read buffer
      expected = d.payload.Copy();
    }
  });

  constexpr int kConnections = 6;
  for (int i = 0; i < kConnections; ++i) {
    size_t before = frames;
    net::SocketTransport client(&loop);
    client.AddRoute(node, "127.0.0.1", *port);
    client.Send({static_cast<sim::NodeId>(100 + i), 41000}, {node, 7100},
                Bytes(2048, static_cast<uint8_t>(0x10 + i)));
    ASSERT_TRUE(
        loop.RunUntil([&]() { return frames == before + 1; }, 10 * sim::kSecond));
    // The client destructs here: its connection closes and the server-side
    // read buffer (unless pinned) returns to the pool.
  }
  loop.RunFor(100 * sim::kMillisecond);  // drain the final EOF

  EXPECT_EQ(frames, static_cast<size_t>(kConnections));
  EXPECT_GE(server.stats().read_bufs_recycled, 1u)
      << "closed connections' buffers never came back from the freelist";
  ASSERT_EQ(stashed.size(), expected.size());
  EXPECT_TRUE(std::equal(stashed.span().begin(), stashed.span().end(), expected.begin()))
      << "pinned buffer was recycled while a view still held it";
}

}  // namespace
}  // namespace globe
