// Tests for the discrete-event simulator, topology, network and RPC layers.

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/backend.h"
#include "src/sim/event_queue.h"
#include "src/sim/rpc.h"

namespace globe::sim {
namespace {

// ---------------------------------------------------------------- Simulator

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator simulator;
  std::vector<int> order;
  simulator.ScheduleAt(30, [&] { order.push_back(3); });
  simulator.ScheduleAt(10, [&] { order.push_back(1); });
  simulator.ScheduleAt(20, [&] { order.push_back(2); });
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(simulator.Now(), 30u);
}

TEST(SimulatorTest, SameTimeIsFifo) {
  Simulator simulator;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    simulator.ScheduleAt(5, [&, i] { order.push_back(i); });
  }
  simulator.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, EventsMayScheduleEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.ScheduleAt(10, [&] {
    simulator.ScheduleAfter(5, [&] { fired = 1; });
  });
  simulator.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.Now(), 15u);
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator simulator;
  int count = 0;
  simulator.ScheduleAt(10, [&] { ++count; });
  simulator.ScheduleAt(100, [&] { ++count; });
  simulator.RunUntil(50);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(simulator.Now(), 50u);
  simulator.Run();
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator simulator;
  EXPECT_FALSE(simulator.Step());
}

TEST(SimulatorTest, CancelledEventNeitherRunsNorAdvancesClock) {
  Simulator simulator;
  int ran = 0;
  simulator.ScheduleAt(10, [&] { ++ran; });
  Simulator::EventId cancelled = simulator.ScheduleAt(30 * kSecond, [&] { ran += 100; });
  EXPECT_EQ(simulator.pending_events(), 2u);
  EXPECT_TRUE(simulator.Cancel(cancelled));
  EXPECT_EQ(simulator.pending_events(), 1u);
  simulator.Run();
  EXPECT_EQ(ran, 1);
  // The cancelled event's time must not leak into the clock.
  EXPECT_EQ(simulator.Now(), 10u);
  // Double-cancel and cancelling an executed event both report failure.
  EXPECT_FALSE(simulator.Cancel(cancelled));
  EXPECT_FALSE(simulator.Cancel(Simulator::kNoEvent));
}

TEST(SimulatorTest, CancelInsideRunUntilSkipsCleanly) {
  Simulator simulator;
  std::vector<int> order;
  Simulator::EventId second = simulator.ScheduleAt(20, [&] { order.push_back(2); });
  simulator.ScheduleAt(10, [&] {
    order.push_back(1);
    simulator.Cancel(second);
  });
  simulator.ScheduleAt(40, [&] { order.push_back(3); });
  simulator.RunUntil(25);
  // Only event 1 ran before the deadline; the cancelled one was skipped without
  // dragging the clock to t=20's successor.
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(simulator.Now(), 25u);
  simulator.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

// ---------------------------------------------------------------- EventHeap

TEST(EventHeapTest, CancelHeavyWorkloadDrainsOnlyLiveEventsInOrder) {
  // The shape of a week-long run's deadline timers: most scheduled events are
  // cancelled before they fire. Compaction is internal; what must hold is that
  // pending() tracks live events only, cancelled events never surface, and the
  // survivors drain in (time, id) order.
  EventHeap heap;
  constexpr uint64_t kEvents = 1000;
  for (uint64_t id = 0; id < kEvents; ++id) {
    heap.Push(/*t=*/kEvents - id, id, [] {});
  }
  for (uint64_t id = 0; id < kEvents; ++id) {
    if (id % 10 != 3) {
      EXPECT_TRUE(heap.Cancel(id));
    }
  }
  EXPECT_EQ(heap.pending(), kEvents / 10);
  SimTime last = 0;
  size_t drained = 0;
  while (const TimedEvent* top = heap.Peek()) {
    EXPECT_GT(top->time, last);
    last = top->time;
    TimedEvent event = heap.PopTop();
    EXPECT_EQ(event.id % 10, 3u);
    ++drained;
  }
  EXPECT_EQ(drained, kEvents / 10);
  EXPECT_EQ(heap.pending(), 0u);
}

TEST(EventHeapTest, CancelReportsWhetherEventWasStillPending) {
  EventHeap heap;
  heap.Push(5, 1, [] {});
  heap.Push(6, 2, [] {});
  EXPECT_TRUE(heap.IsPending(1));
  EXPECT_TRUE(heap.Cancel(1));
  EXPECT_FALSE(heap.Cancel(1));   // already cancelled
  EXPECT_FALSE(heap.Cancel(99));  // never existed
  EXPECT_FALSE(heap.IsPending(1));
  (void)heap.Peek();
  TimedEvent ran = heap.PopTop();
  EXPECT_EQ(ran.id, 2u);
  EXPECT_FALSE(heap.Cancel(2));  // already ran
}

TEST(EventHeapTest, TakeAllReturnsLiveEventsAndResetsHeap) {
  EventHeap heap;
  for (uint64_t id = 0; id < 20; ++id) {
    heap.Push(100 + id, id, [] {});
  }
  for (uint64_t id = 0; id < 20; id += 2) {
    heap.Cancel(id);
  }
  std::vector<TimedEvent> live = heap.TakeAll();
  EXPECT_EQ(live.size(), 10u);
  for (const TimedEvent& event : live) {
    EXPECT_EQ(event.id % 2, 1u);
  }
  EXPECT_EQ(heap.pending(), 0u);
  EXPECT_EQ(heap.Peek(), nullptr);
}

// ---------------------------------------------------------------- Topology

class WorldTest : public ::testing::Test {
 protected:
  // 2 continents x 2 countries x 2 sites, 2 hosts per site = 16 hosts.
  WorldTest() : world_(BuildUniformWorld({2, 2, 2}, 2)) {}
  UniformWorld world_;
};

TEST_F(WorldTest, Counts) {
  EXPECT_EQ(world_.leaf_domains.size(), 8u);
  EXPECT_EQ(world_.hosts.size(), 16u);
  // 1 root + 2 + 4 + 8 = 15 domains.
  EXPECT_EQ(world_.topology.num_domains(), 15u);
}

TEST_F(WorldTest, AscentLevels) {
  const Topology& t = world_.topology;
  // Hosts 0 and 1 share a leaf site.
  EXPECT_EQ(t.AscentLevel(world_.hosts[0], world_.hosts[1]), 0);
  // Hosts 0 and 2 share a country but not a site.
  EXPECT_EQ(t.AscentLevel(world_.hosts[0], world_.hosts[2]), 1);
  // Hosts 0 and 4 share a continent but not a country.
  EXPECT_EQ(t.AscentLevel(world_.hosts[0], world_.hosts[4]), 2);
  // Hosts 0 and 8 are on different continents.
  EXPECT_EQ(t.AscentLevel(world_.hosts[0], world_.hosts[8]), 3);
}

TEST_F(WorldTest, LatencyMonotoneInDistance) {
  LinkProfile profile;
  const Topology& t = world_.topology;
  double same_site = t.LatencyUs(world_.hosts[0], world_.hosts[1], profile);
  double same_country = t.LatencyUs(world_.hosts[0], world_.hosts[2], profile);
  double same_continent = t.LatencyUs(world_.hosts[0], world_.hosts[4], profile);
  double world_apart = t.LatencyUs(world_.hosts[0], world_.hosts[8], profile);
  EXPECT_LT(same_site, same_country);
  EXPECT_LT(same_country, same_continent);
  EXPECT_LT(same_continent, world_apart);
}

TEST_F(WorldTest, LoopbackCheapest) {
  LinkProfile profile;
  const Topology& t = world_.topology;
  EXPECT_LT(t.LatencyUs(world_.hosts[0], world_.hosts[0], profile),
            t.LatencyUs(world_.hosts[0], world_.hosts[1], profile));
}

TEST_F(WorldTest, LatencyIsSymmetric) {
  LinkProfile profile;
  const Topology& t = world_.topology;
  for (NodeId a : {0u, 3u, 9u}) {
    for (NodeId b : {1u, 7u, 15u}) {
      EXPECT_EQ(t.LatencyUs(a, b, profile), t.LatencyUs(b, a, profile));
    }
  }
}

TEST_F(WorldTest, TransmitScalesWithSizeAndDistance) {
  LinkProfile profile;
  const Topology& t = world_.topology;
  double lan_1k = t.TransmitUs(world_.hosts[0], world_.hosts[1], 1000, profile);
  double lan_2k = t.TransmitUs(world_.hosts[0], world_.hosts[1], 2000, profile);
  double wan_1k = t.TransmitUs(world_.hosts[0], world_.hosts[8], 1000, profile);
  EXPECT_NEAR(lan_2k, 2 * lan_1k, 1e-9);
  EXPECT_GT(wan_1k, lan_1k);
}

TEST_F(WorldTest, LcaAndAncestors) {
  const Topology& t = world_.topology;
  DomainId leaf0 = world_.leaf_domains[0];
  DomainId leaf7 = world_.leaf_domains[7];
  EXPECT_EQ(t.Lca(leaf0, leaf7), world_.root);
  EXPECT_EQ(t.Lca(leaf0, leaf0), leaf0);
  EXPECT_TRUE(t.IsAncestorOrSelf(world_.root, leaf0));
  EXPECT_TRUE(t.IsAncestorOrSelf(leaf0, leaf0));
  EXPECT_FALSE(t.IsAncestorOrSelf(leaf0, world_.root));
}

TEST_F(WorldTest, NodesUnder) {
  const Topology& t = world_.topology;
  EXPECT_EQ(t.NodesUnder(world_.root).size(), 16u);
  EXPECT_EQ(t.NodesUnder(world_.leaf_domains[0]).size(), 2u);
}

TEST(TopologyTest, DomainDepths) {
  Topology t;
  DomainId root = t.AddDomain("root", kNoDomain);
  DomainId mid = t.AddDomain("mid", root);
  DomainId leaf = t.AddDomain("leaf", mid);
  EXPECT_EQ(t.DomainDepth(root), 0);
  EXPECT_EQ(t.DomainDepth(mid), 1);
  EXPECT_EQ(t.DomainDepth(leaf), 2);
  EXPECT_EQ(t.DomainChildren(root).size(), 1u);
}

TEST(TopologyTest, LinkProfileClampsBeyondTable) {
  LinkProfile profile;
  profile.latency_us = {100, 200};
  EXPECT_EQ(profile.LatencyAt(0), 100);
  EXPECT_EQ(profile.LatencyAt(1), 200);
  EXPECT_EQ(profile.LatencyAt(7), 200);
}

// ---------------------------------------------------------------- Network

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : world_(BuildUniformWorld({2, 2}, 2)),
        network_(&simulator_, &world_.topology) {}

  Simulator simulator_;
  UniformWorld world_;
  Network network_;
};

TEST_F(NetworkTest, DeliversToRegisteredPort) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  Bytes received;
  network_.RegisterPort(b, 100, [&](const Delivery& d) { received = d.payload.Copy(); });
  network_.Send({a, 50}, {b, 100}, ToBytes("ping"));
  simulator_.Run();
  EXPECT_EQ(globe::ToString(received), "ping");
}

TEST_F(NetworkTest, ChargesLatencyByDistance) {
  NodeId a = world_.hosts[0];
  NodeId near = world_.hosts[1];   // same site
  NodeId far = world_.hosts.back();  // other continent

  SimTime near_time = 0, far_time = 0;
  network_.RegisterPort(near, 1, [&](const Delivery&) { near_time = simulator_.Now(); });
  network_.RegisterPort(far, 1, [&](const Delivery&) { far_time = simulator_.Now(); });
  network_.Send({a, 2}, {near, 1}, Bytes(100));
  network_.Send({a, 2}, {far, 1}, Bytes(100));
  simulator_.Run();
  EXPECT_GT(far_time, near_time);
}

TEST_F(NetworkTest, UnregisteredPortDropsSilently) {
  network_.Send({world_.hosts[0], 1}, {world_.hosts[1], 99}, Bytes(10));
  simulator_.Run();  // must not crash
  EXPECT_EQ(network_.stats().TotalMessages(), 1u);  // sent counts even if undelivered
}

TEST_F(NetworkTest, TrafficAccountingByLevel) {
  NodeId a = world_.hosts[0];
  NodeId same_site = world_.hosts[1];
  NodeId far = world_.hosts.back();
  network_.RegisterPort(same_site, 1, [](const Delivery&) {});
  network_.RegisterPort(far, 1, [](const Delivery&) {});

  network_.Send({a, 2}, {same_site, 1}, Bytes(100));
  network_.Send({a, 2}, {far, 1}, Bytes(200));
  simulator_.Run();

  const TrafficStats& stats = network_.stats();
  ASSERT_GE(stats.per_level.size(), 3u);
  EXPECT_EQ(stats.per_level[0].bytes, 100u);
  EXPECT_EQ(stats.per_level[2].bytes, 200u);
  EXPECT_EQ(stats.TotalBytes(), 300u);
  EXPECT_EQ(stats.BytesAtOrAbove(1), 200u);
}

TEST_F(NetworkTest, LoopbackAccountedSeparately) {
  NodeId a = world_.hosts[0];
  network_.RegisterPort(a, 1, [](const Delivery&) {});
  network_.Send({a, 2}, {a, 1}, Bytes(64));
  simulator_.Run();
  EXPECT_EQ(network_.stats().loopback_bytes, 64u);
  EXPECT_EQ(network_.stats().BytesAtOrAbove(0), 0u);
}

TEST_F(NetworkTest, DownNodeDropsMessages) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  int delivered = 0;
  network_.RegisterPort(b, 1, [&](const Delivery&) { ++delivered; });
  network_.SetNodeUp(b, false);
  network_.Send({a, 2}, {b, 1}, Bytes(10));
  simulator_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network_.stats().down_node_messages, 1u);

  network_.SetNodeUp(b, true);
  network_.Send({a, 2}, {b, 1}, Bytes(10));
  simulator_.Run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, NodeGoingDownInFlightDropsDelivery) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts.back();
  int delivered = 0;
  network_.RegisterPort(b, 1, [&](const Delivery&) { ++delivered; });
  network_.Send({a, 2}, {b, 1}, Bytes(10));
  // Take b down before the (wide-area, slow) message arrives.
  simulator_.ScheduleAt(1, [&] { network_.SetNodeUp(b, false); });
  simulator_.Run();
  EXPECT_EQ(delivered, 0);
}

TEST(NetworkDropTest, DropProbabilityLosesRoughlyThatFraction) {
  Simulator simulator;
  UniformWorld world = BuildUniformWorld({2}, 2);
  NetworkOptions options;
  options.drop_probability = 0.3;
  Network network(&simulator, &world.topology, options);

  int delivered = 0;
  network.RegisterPort(world.hosts[1], 1, [&](const Delivery&) { ++delivered; });
  constexpr int kN = 2000;
  for (int i = 0; i < kN; ++i) {
    network.Send({world.hosts[0], 2}, {world.hosts[1], 1}, Bytes(8));
  }
  simulator.Run();
  EXPECT_NEAR(delivered, kN * 0.7, kN * 0.06);
  EXPECT_EQ(network.stats().dropped_messages + delivered, static_cast<uint64_t>(kN));
}

TEST_F(NetworkTest, EavesdropperSeesPayload) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  std::string sniffed;
  network_.SetEavesdropper([&](const Endpoint&, const Endpoint&, ByteSpan payload) {
    sniffed = globe::ToString(payload);
  });
  network_.RegisterPort(b, 1, [](const Delivery&) {});
  network_.Send({a, 2}, {b, 1}, ToBytes("secret-package"));
  simulator_.Run();
  EXPECT_EQ(sniffed, "secret-package");
}

TEST_F(NetworkTest, PerNodeReceivedCounts) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  network_.RegisterPort(b, 1, [](const Delivery&) {});
  for (int i = 0; i < 5; ++i) {
    network_.Send({a, 2}, {b, 1}, Bytes(8));
  }
  simulator_.Run();
  EXPECT_EQ(network_.per_node_received().at(b), 5u);
}

// ---------------------------------------------------------------- RPC

class RpcTest : public ::testing::Test {
 protected:
  RpcTest()
      : world_(BuildUniformWorld({2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        transport_(&network_) {}

  Simulator simulator_;
  UniformWorld world_;
  Network network_;
  PlainTransport transport_;
};

TEST_F(RpcTest, EchoRoundTrip) {
  NodeId server_node = world_.hosts[0];
  NodeId client_node = world_.hosts[5];
  RpcServer server(&transport_, server_node, 700);
  server.RegisterMethod("echo", [](const RpcContext&, ByteSpan req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });

  Channel client(&transport_, client_node);
  Bytes reply;
  client.Call(server.endpoint(), "echo", ToBytes("hello globe"),
              [&](Result<PayloadView> result) {
                ASSERT_TRUE(result.ok());
                reply = result->Copy();
              });
  simulator_.Run();
  EXPECT_EQ(globe::ToString(reply), "hello globe");
  EXPECT_EQ(server.requests_served(), 1u);
}

TEST_F(RpcTest, DrainedCallAdvancesClockByRoundTripNotDeadline) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.RegisterMethod("echo", [](const RpcContext&, ByteSpan req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });

  Channel client(&transport_, world_.hosts[5]);
  bool answered = false;
  client.Call(server.endpoint(), "echo", ToBytes("x"),
              [&](Result<PayloadView> result) { answered = result.ok(); });
  simulator_.Run();
  ASSERT_TRUE(answered);
  // The 30 s deadline event was erased when the response landed: draining the
  // queue costs the path's round-trip time, far under a second — not ~30 s.
  EXPECT_LT(simulator_.Now(), kSecond);
  EXPECT_EQ(simulator_.pending_events(), 0u);
}

TEST_F(RpcTest, ErrorStatusPropagates) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.RegisterMethod("fail", [](const RpcContext&, ByteSpan) -> Result<Bytes> {
    return PermissionDenied("not a moderator");
  });

  Channel client(&transport_, world_.hosts[1]);
  Status got;
  client.Call(server.endpoint(), "fail", {}, [&](Result<PayloadView> result) {
    ASSERT_FALSE(result.ok());
    got = result.status();
  });
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(got.message(), "not a moderator");
}

TEST_F(RpcTest, UnknownMethodReturnsNotFound) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  Channel client(&transport_, world_.hosts[1]);
  Status got;
  client.Call(server.endpoint(), "nope", {}, [&](Result<PayloadView> result) {
    got = result.status();
  });
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kNotFound);
}

TEST_F(RpcTest, DeadlineWhenServerDown) {
  NodeId server_node = world_.hosts[0];
  RpcServer server(&transport_, server_node, 700);
  server.RegisterMethod("echo", [](const RpcContext&, ByteSpan req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  network_.SetNodeUp(server_node, false);

  Channel client(&transport_, world_.hosts[1]);
  Status got;
  CallOptions options;
  options.deadline = 5 * kSecond;
  client.Call(server.endpoint(), "echo", {},
              [&](Result<PayloadView> result) { got = result.status(); }, options);
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
  // The deadline fired exactly when it should.
  EXPECT_EQ(simulator_.Now(), 5 * kSecond);
  EXPECT_EQ(client.stats().deadline_exceeded, 1u);
  EXPECT_EQ(client.PeerLoad(server.endpoint()).failed, 1u);
}

TEST_F(RpcTest, CancelledCallNeverRunsItsCallbackNorLeaksPendingState) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.RegisterMethod("echo", [](const RpcContext&, ByteSpan req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });

  Channel client(&transport_, world_.hosts[5]);
  int callback_runs = 0;
  CallHandle handle = client.Call(server.endpoint(), "echo", ToBytes("x"),
                                  [&](Result<PayloadView>) { ++callback_runs; });
  EXPECT_TRUE(handle.active());
  handle.Cancel();
  EXPECT_FALSE(handle.active());
  // Cancel is idempotent.
  handle.Cancel();

  simulator_.Run();
  // The server still answered (the request was already on the wire), but the
  // callback never fired and no pending entry or deadline event leaked.
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(callback_runs, 0);
  EXPECT_EQ(client.PeerLoad(server.endpoint()).outstanding, 0u);
  EXPECT_EQ(client.stats().cancelled, 1u);
  EXPECT_EQ(simulator_.pending_events(), 0u);
  EXPECT_LT(simulator_.Now(), kSecond);  // the deadline event was erased too
}

TEST_F(RpcTest, RetryPolicyExhaustionSurfacesLastError) {
  NodeId server_node = world_.hosts[0];
  RpcServer server(&transport_, server_node, 700);
  network_.SetNodeUp(server_node, false);

  Channel client(&transport_, world_.hosts[1]);
  Status got;
  CallOptions options;
  options.deadline = 2 * kSecond;
  options.retry.attempts = 3;
  options.retry.backoff = 500 * kMillisecond;
  options.retry.backoff_multiplier = 2.0;
  client.Call(server.endpoint(), "echo", {},
              [&](Result<PayloadView> result) { got = result.status(); }, options);
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
  EXPECT_EQ(client.stats().retries, 2u);
  EXPECT_EQ(client.stats().deadline_exceeded, 3u);
  // 3 deadlines of 2 s plus backoffs of 0.5 s and 1 s.
  EXPECT_EQ(simulator_.Now(), 3 * 2 * kSecond + 1500 * kMillisecond);
}

TEST_F(RpcTest, RetryPolicyRecoversFromTransientFailures) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  int attempts_seen = 0;
  server.RegisterMethod("flaky", [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
    if (++attempts_seen < 3) {
      return Unavailable("try again");
    }
    return ToBytes("finally");
  });

  Channel client(&transport_, world_.hosts[1]);
  Bytes reply;
  CallOptions options;
  options.retry.attempts = 3;
  options.retry.backoff = 100 * kMillisecond;
  client.Call(server.endpoint(), "flaky", {},
              [&](Result<PayloadView> result) {
                ASSERT_TRUE(result.ok());
                reply = result->Copy();
              },
              options);
  simulator_.Run();
  EXPECT_EQ(globe::ToString(reply), "finally");
  EXPECT_EQ(attempts_seen, 3);
  EXPECT_EQ(client.stats().retries, 2u);
}

TEST_F(RpcTest, StaleErrorResponseDoesNotConsumeRetryBudget) {
  // The server is so slow (3 s service time) that every attempt's 2 s deadline
  // fires before its (error) response arrives. The stale response must not be
  // double-counted as a second failure of the already-charged attempt: both
  // configured attempts go out on the wire before the call fails.
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.set_service_time(3 * kSecond);
  server.RegisterMethod("slow-fail", [](const RpcContext&, ByteSpan) -> Result<Bytes> {
    return Unavailable("busy");
  });

  Channel client(&transport_, world_.hosts[1]);
  Status got;
  SimTime failed_at = 0;
  CallOptions options;
  options.deadline = 2 * kSecond;
  options.retry.attempts = 2;
  options.retry.backoff = 2 * kSecond;
  client.Call(server.endpoint(), "slow-fail", {},
              [&](Result<PayloadView> result) {
                got = result.status();
                failed_at = simulator_.Now();
              },
              options);
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.requests_served(), 2u);  // both attempts physically sent
  EXPECT_EQ(client.stats().retries, 1u);
  // Attempt 1's deadline (2 s) + backoff (2 s) + attempt 2's deadline (2 s).
  EXPECT_EQ(failed_at, 6 * kSecond);
}

TEST_F(RpcTest, StaleErrorAfterRetryWasSentIsIgnored) {
  // Short backoff: the retry is already on the wire when attempt 1's error
  // response finally arrives. The stale error must neither fail the call (the
  // live retry is still pending) nor burn another budget slot.
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.set_service_time(3 * kSecond);
  server.RegisterMethod("slow-fail", [](const RpcContext&, ByteSpan) -> Result<Bytes> {
    return Unavailable("busy");
  });

  Channel client(&transport_, world_.hosts[1]);
  Status got;
  SimTime failed_at = 0;
  CallOptions options;
  options.deadline = 2 * kSecond;
  options.retry.attempts = 2;
  options.retry.backoff = 200 * kMillisecond;  // resend at ~2.2 s, stale error ~3 s
  client.Call(server.endpoint(), "slow-fail", {},
              [&](Result<PayloadView> result) {
                got = result.status();
                failed_at = simulator_.Now();
              },
              options);
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(client.stats().retries, 1u);
  // The call fails when attempt 2's own deadline expires (2 s + 0.2 s + 2 s),
  // not when attempt 1's stale error trickles in at ~3 s.
  EXPECT_EQ(failed_at, 4200 * kMillisecond);
}

TEST_F(RpcTest, StaleOkAfterRetryWasSentCompletesTheCall) {
  // The server is slow but succeeds: attempt 1's OK response lands after the
  // retry went out, and must complete the call (superseding the retry, whose
  // eventual response is dropped).
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.set_service_time(3 * kSecond);
  server.RegisterMethod("slow-ok", [](const RpcContext&, ByteSpan) -> Result<Bytes> {
    return ToBytes("done");
  });

  Channel client(&transport_, world_.hosts[1]);
  Bytes reply;
  int callback_runs = 0;
  CallOptions options;
  options.deadline = 2 * kSecond;
  options.retry.attempts = 2;
  options.retry.backoff = 200 * kMillisecond;
  client.Call(server.endpoint(), "slow-ok", {},
              [&](Result<PayloadView> result) {
                ++callback_runs;
                ASSERT_TRUE(result.ok());
                reply = result->Copy();
              },
              options);
  simulator_.Run();
  EXPECT_EQ(globe::ToString(reply), "done");
  EXPECT_EQ(callback_runs, 1);
  EXPECT_EQ(server.requests_served(), 2u);
  EXPECT_EQ(client.PeerLoad(server.endpoint()).outstanding, 0u);
  EXPECT_EQ(simulator_.pending_events(), 0u);
}

TEST_F(RpcTest, RetryBackoffAdvancesVirtualTimeGeometrically) {
  // Each backoff is backoff * multiplier^k for the k-th retry: with the server
  // unreachable, the whole call costs exactly
  //   attempts * deadline + backoff * (1 + m + m^2).
  NodeId server_node = world_.hosts[0];
  RpcServer server(&transport_, server_node, 700);
  network_.SetNodeUp(server_node, false);

  Channel client(&transport_, world_.hosts[1]);
  Status got;
  CallOptions options;
  options.deadline = 1 * kSecond;
  options.retry.attempts = 4;
  options.retry.backoff = 100 * kMillisecond;
  options.retry.backoff_multiplier = 3.0;
  EXPECT_EQ(options.retry.BackoffFor(1), 100 * kMillisecond);
  EXPECT_EQ(options.retry.BackoffFor(2), 300 * kMillisecond);
  EXPECT_EQ(options.retry.BackoffFor(3), 900 * kMillisecond);
  client.Call(server.endpoint(), "echo", {},
              [&](Result<PayloadView> result) { got = result.status(); }, options);
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
  EXPECT_EQ(simulator_.Now(), 4 * kSecond + (100 + 300 + 900) * kMillisecond);
}

TEST_F(RpcTest, RetryExhaustionSurfacesTheLastError) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  int attempt = 0;
  server.RegisterMethod("flaky", [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
    return Unavailable("err-" + std::to_string(++attempt));
  });

  Channel client(&transport_, world_.hosts[1]);
  Status got;
  CallOptions options;
  options.retry.attempts = 3;
  options.retry.backoff = 100 * kMillisecond;
  client.Call(server.endpoint(), "flaky", {},
              [&](Result<PayloadView> result) { got = result.status(); }, options);
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kUnavailable);
  EXPECT_EQ(got.message(), "err-3");  // the last attempt's error, not the first
}

TEST_F(RpcTest, CancelDuringBackoffStopsTheRetryChain) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.RegisterMethod("flaky", [](const RpcContext&, ByteSpan) -> Result<Bytes> {
    return Unavailable("try again");
  });

  Channel client(&transport_, world_.hosts[1]);
  int callback_runs = 0;
  CallOptions options;
  options.retry.attempts = 5;
  options.retry.backoff = 10 * kSecond;
  CallHandle handle = client.Call(server.endpoint(), "flaky", {},
                                  [&](Result<PayloadView>) { ++callback_runs; }, options);
  // Let attempt 1 fail and the first backoff get scheduled, then cancel.
  simulator_.RunUntil(kSecond);
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(client.stats().retries, 1u);  // scheduled, not yet sent
  EXPECT_TRUE(handle.active());
  handle.Cancel();

  simulator_.Run();
  // The pending retry never went out and nothing leaked.
  EXPECT_EQ(server.requests_served(), 1u);
  EXPECT_EQ(callback_runs, 0);
  EXPECT_EQ(client.stats().cancelled, 1u);
  EXPECT_EQ(simulator_.pending_events(), 0u);
}

TEST_F(RpcTest, ApplicationErrorsAreNotRetried) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  int calls = 0;
  server.RegisterMethod("denied", [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
    ++calls;
    return PermissionDenied("no");
  });

  Channel client(&transport_, world_.hosts[1]);
  Status got;
  CallOptions options;
  options.retry.attempts = 5;
  client.Call(server.endpoint(), "denied", {},
              [&](Result<PayloadView> result) { got = result.status(); }, options);
  simulator_.Run();
  EXPECT_EQ(got.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(client.stats().retries, 0u);
}

TEST_F(RpcTest, PeerLoadTracksOutstandingDepthAndLatency) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.RegisterMethod("echo", [](const RpcContext&, ByteSpan req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });

  Channel client(&transport_, world_.hosts[5]);
  for (int i = 0; i < 4; ++i) {
    client.Call(server.endpoint(), "echo", {}, [](Result<PayloadView>) {});
  }
  EXPECT_EQ(client.PeerLoad(server.endpoint()).outstanding, 4u);
  simulator_.Run();
  PeerLoad load = client.PeerLoad(server.endpoint());
  EXPECT_EQ(load.outstanding, 0u);
  EXPECT_EQ(load.completed, 4u);
  EXPECT_GT(load.ewma_latency_us, 0.0);
  // A peer never called reports zeroes, and LessLoaded prefers it.
  PeerLoad idle = client.PeerLoad({world_.hosts[7], 700});
  EXPECT_EQ(idle.completed, 0u);
  EXPECT_TRUE(LessLoaded(idle, load));
}

TEST_F(RpcTest, ServiceTimeQueuesRequestsFifo) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.set_service_time(10 * kMillisecond);
  server.RegisterMethod("work", [](const RpcContext&, ByteSpan) -> Result<Bytes> {
    return Bytes{};
  });

  Channel client(&transport_, world_.hosts[1]);
  std::vector<SimTime> completions;
  for (int i = 0; i < 5; ++i) {
    client.Call(server.endpoint(), "work", {},
                [&](Result<PayloadView> result) {
                  ASSERT_TRUE(result.ok());
                  completions.push_back(simulator_.Now());
                });
  }
  simulator_.Run();
  ASSERT_EQ(completions.size(), 5u);
  // One virtual CPU: the five near-simultaneous requests drained serially, so the
  // last completion paid the whole 50 ms queue.
  EXPECT_GE(completions.back(), 5 * 10 * kMillisecond);
  for (size_t i = 1; i < completions.size(); ++i) {
    EXPECT_GE(completions[i], completions[i - 1] + 10 * kMillisecond);
  }
}

TEST_F(RpcTest, AsyncHandlerCanRespondLater) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.RegisterAsyncMethod(
      "slow", [&](const RpcContext&, ByteSpan, RpcServer::Responder respond) {
        simulator_.ScheduleAfter(kSecond, [respond = std::move(respond)] {
          respond(ToBytes("done"));
        });
      });

  Channel client(&transport_, world_.hosts[1]);
  Bytes reply;
  client.Call(server.endpoint(), "slow", {}, [&](Result<PayloadView> result) {
    ASSERT_TRUE(result.ok());
    reply = result->Copy();
  });
  simulator_.Run();
  EXPECT_EQ(globe::ToString(reply), "done");
  EXPECT_GT(simulator_.Now(), kSecond);
}

TEST_F(RpcTest, NestedRpcThroughAsyncHandler) {
  // front server forwards to back server — the GLS lookup pattern.
  RpcServer back(&transport_, world_.hosts[2], 701);
  back.RegisterMethod("get", [](const RpcContext&, ByteSpan) -> Result<Bytes> {
    return ToBytes("from-back");
  });

  RpcServer front(&transport_, world_.hosts[0], 700);
  auto front_client = std::make_shared<Channel>(&transport_, world_.hosts[0]);
  front.RegisterAsyncMethod(
      "forward",
      [&, front_client](const RpcContext&, ByteSpan, RpcServer::Responder respond) {
        front_client->Call(back.endpoint(), "get", {},
                           [respond = std::move(respond)](Result<PayloadView> result) {
                             if (!result.ok()) {
                               respond(result.status());
                               return;
                             }
                             // The forwarded response outlives this delivery:
                             // copy at the ownership boundary.
                             respond(result->Copy());
                           });
      });

  Channel client(&transport_, world_.hosts[5]);
  Bytes reply;
  client.Call(front.endpoint(), "forward", {}, [&](Result<PayloadView> result) {
    ASSERT_TRUE(result.ok());
    reply = result->Copy();
  });
  simulator_.Run();
  EXPECT_EQ(globe::ToString(reply), "from-back");
}

TEST_F(RpcTest, ManyConcurrentCallsCorrelate) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.RegisterMethod("double", [](const RpcContext&, ByteSpan req) -> Result<Bytes> {
    ByteReader r(req);
    uint64_t v = r.ReadU64().value();
    ByteWriter w;
    w.WriteU64(v * 2);
    return w.Take();
  });

  Channel client(&transport_, world_.hosts[3]);
  std::map<uint64_t, uint64_t> results;
  for (uint64_t i = 0; i < 50; ++i) {
    ByteWriter w;
    w.WriteU64(i);
    client.Call(server.endpoint(), "double", w.Take(),
                [&, i](Result<PayloadView> result) {
      ASSERT_TRUE(result.ok());
      ByteReader r(*result);
      results[i] = r.ReadU64().value();
    });
  }
  simulator_.Run();
  ASSERT_EQ(results.size(), 50u);
  for (uint64_t i = 0; i < 50; ++i) {
    EXPECT_EQ(results[i], i * 2);
  }
}

TEST_F(RpcTest, MalformedFrameIsIgnored) {
  RpcServer server(&transport_, world_.hosts[0], 700);
  server.RegisterMethod("echo", [](const RpcContext&, ByteSpan req) -> Result<Bytes> {
    return Bytes(req.begin(), req.end());
  });
  // Bogus bytes straight to the server port: service must survive (§6.1 availability).
  network_.Send({world_.hosts[1], 999}, {world_.hosts[0], 700}, Bytes{0xde, 0xad});
  simulator_.Run();
  EXPECT_EQ(server.requests_served(), 0u);
}

// ------------------------------------------------------- At-most-once dedup

// Helpers shared by the dedup tests: a raw request frame for `method` under the
// given attempt and call ids, exactly as Channel would emit it.
Bytes RequestFrame(uint64_t attempt_id, uint64_t call_id, std::string_view method,
                   ByteSpan payload) {
  ByteWriter w;
  w.WriteU8(0);  // request
  w.WriteU64(attempt_id);
  w.WriteU64(call_id);
  w.WriteString(method);
  w.WriteLengthPrefixed(payload);
  return w.Take();
}

struct ParsedResponse {
  uint64_t attempt_id = 0;
  StatusCode code = StatusCode::kInternal;
  Bytes payload;
};

Result<ParsedResponse> ParseResponse(ByteSpan frame) {
  ByteReader r(frame);
  ParsedResponse response;
  ASSIGN_OR_RETURN(uint8_t type, r.ReadU8());
  if (type != 1) {
    return InvalidArgument("not a response frame");
  }
  ASSIGN_OR_RETURN(response.attempt_id, r.ReadU64());
  ASSIGN_OR_RETURN(uint8_t code, r.ReadU8());
  response.code = static_cast<StatusCode>(code);
  ASSIGN_OR_RETURN(std::string message, r.ReadString());
  ASSIGN_OR_RETURN(response.payload, r.ReadLengthPrefixed());
  return response;
}

class DedupTest : public RpcTest {
 protected:
  DedupTest() : server_(&transport_, world_.hosts[0], 700) {
    // A visibly non-idempotent method: every execution bumps the counter and
    // answers with the post-increment value.
    server_.RegisterMethod("counter.add",
                           [this](const RpcContext&, ByteSpan) -> Result<Bytes> {
                             ByteWriter w;
                             w.WriteU64(++executions_);
                             return w.Take();
                           },
                           kNonIdempotent);
    client_ = Endpoint{world_.hosts[1], 41000};
    network_.RegisterPort(client_.node, client_.port, [this](const Delivery& d) {
      auto response = ParseResponse(d.payload);
      ASSERT_TRUE(response.ok());
      responses_.push_back(*response);
    });
  }

  void SendRequest(uint64_t attempt_id, uint64_t call_id) {
    network_.Send(client_, server_.endpoint(),
                  RequestFrame(attempt_id, call_id, "counter.add", {}));
  }

  RpcServer server_;
  uint64_t executions_ = 0;
  Endpoint client_;
  std::vector<ParsedResponse> responses_;
};

TEST_F(DedupTest, DuplicateDeliveryReplaysTheCachedResponse) {
  SendRequest(/*attempt_id=*/1, /*call_id=*/1);
  simulator_.Run();
  // The retry of call 1 arrives under a fresh attempt id, as Channel sends it.
  SendRequest(/*attempt_id=*/2, /*call_id=*/1);
  simulator_.Run();

  EXPECT_EQ(executions_, 1u);  // the handler ran exactly once
  EXPECT_EQ(server_.duplicates_suppressed(), 1u);
  EXPECT_EQ(server_.requests_served(), 1u);  // duplicates are not "served"
  ASSERT_EQ(responses_.size(), 2u);
  // Each attempt got a response, correlated to its own id, with the payload of
  // the one real execution.
  EXPECT_EQ(responses_[0].attempt_id, 1u);
  EXPECT_EQ(responses_[1].attempt_id, 2u);
  EXPECT_EQ(responses_[0].payload, responses_[1].payload);

  // A different call id is a different call: it executes.
  SendRequest(/*attempt_id=*/3, /*call_id=*/2);
  simulator_.Run();
  EXPECT_EQ(executions_, 2u);
}

TEST_F(DedupTest, DuplicateWhileExecutionInProgressJoinsIt) {
  server_.set_service_time(kSecond);  // the first delivery queues for 1 s
  SendRequest(/*attempt_id=*/1, /*call_id=*/1);
  SendRequest(/*attempt_id=*/2, /*call_id=*/1);
  simulator_.Run();

  EXPECT_EQ(executions_, 1u);
  EXPECT_EQ(server_.duplicates_suppressed(), 1u);
  // Both attempts were answered by the single execution when it completed.
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_[0].payload, responses_[1].payload);
}

TEST_F(DedupTest, DedupEntriesEvictAfterTtl) {
  SendRequest(/*attempt_id=*/1, /*call_id=*/1);
  simulator_.Run();
  EXPECT_EQ(server_.dedup_entries(), 1u);

  // A very late duplicate — after the TTL — finds no entry and executes again.
  // The TTL must therefore cover the client's maximum retry horizon.
  simulator_.ScheduleAfter(kDedupTtl + kSecond, [] {});
  simulator_.Run();
  SendRequest(/*attempt_id=*/2, /*call_id=*/1);
  simulator_.Run();
  EXPECT_EQ(executions_, 2u);
  EXPECT_EQ(server_.duplicates_suppressed(), 0u);
}

TEST_F(DedupTest, DedupTableSurvivesCheckpointRestore) {
  // A server rebuilt from a checkpoint (the DirectorySubnode::SaveState flow)
  // must still answer duplicates of writes the pre-crash server executed from
  // the restored table, not run them again.
  SendRequest(/*attempt_id=*/1, /*call_id=*/1);
  simulator_.Run();
  ASSERT_EQ(responses_.size(), 1u);
  Bytes original_payload = responses_[0].payload;

  ByteWriter w;
  server_.SerializeDedup(&w);
  Bytes checkpoint = w.Take();

  // The rebuilt server: same method registered, fresh (empty) handler state.
  RpcServer rebuilt(&transport_, world_.hosts[2], 700);
  uint64_t rebuilt_executions = 0;
  rebuilt.RegisterMethod("counter.add",
                         [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
                           ByteWriter out;
                           out.WriteU64(1000 + ++rebuilt_executions);
                           return out.Take();
                         },
                         kNonIdempotent);
  ByteReader r(checkpoint);
  ASSERT_TRUE(rebuilt.RestoreDedup(&r).ok());
  EXPECT_EQ(rebuilt.dedup_entries(), 1u);

  // The client's retry of call 1 reaches the rebuilt server: the dedup key is
  // (client endpoint, call id), so the restored entry replays the original
  // response and the handler never runs.
  network_.Send(client_, rebuilt.endpoint(),
                RequestFrame(/*attempt_id=*/2, /*call_id=*/1, "counter.add", {}));
  simulator_.Run();
  EXPECT_EQ(rebuilt_executions, 0u);
  EXPECT_EQ(rebuilt.duplicates_suppressed(), 1u);
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_[1].payload, original_payload);

  // A genuinely new call still executes on the rebuilt server.
  network_.Send(client_, rebuilt.endpoint(),
                RequestFrame(/*attempt_id=*/3, /*call_id=*/2, "counter.add", {}));
  simulator_.Run();
  EXPECT_EQ(rebuilt_executions, 1u);
}

TEST_F(DedupTest, TransientErrorsAreNotPinnedByTheDedupTable) {
  // UNAVAILABLE is the one code retry policies repeat: caching it would doom
  // every retry of the call to the same replayed error for the whole TTL. The
  // entry is dropped instead, so the retry re-executes and can succeed.
  int attempts_seen = 0;
  server_.RegisterMethod("flaky.write",
                         [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
                           if (++attempts_seen == 1) {
                             return Unavailable("chain timed out");
                           }
                           return ToBytes("done");
                         },
                         kNonIdempotent);

  Channel client(&transport_, world_.hosts[2]);
  Bytes reply;
  CallOptions options;
  options.retry.attempts = 3;
  options.retry.backoff = 100 * kMillisecond;
  client.Call(server_.endpoint(), "flaky.write", {},
              [&](Result<PayloadView> result) {
                ASSERT_TRUE(result.ok());
                reply = result->Copy();
              },
              options);
  simulator_.Run();
  EXPECT_EQ(globe::ToString(reply), "done");
  EXPECT_EQ(attempts_seen, 2);
  // Only the definitive outcome stayed cached.
  EXPECT_EQ(server_.dedup_entries(), 1u);
}

TEST_F(DedupTest, ErrorResponsesAreReplayedToo) {
  uint64_t failures = 0;
  server_.RegisterMethod("always.fail",
                         [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
                           ++failures;
                           return FailedPrecondition("nope");
                         },
                         kNonIdempotent);
  network_.Send(client_, server_.endpoint(),
                RequestFrame(1, 9, "always.fail", {}));
  network_.Send(client_, server_.endpoint(),
                RequestFrame(2, 9, "always.fail", {}));
  simulator_.Run();
  EXPECT_EQ(failures, 1u);
  ASSERT_EQ(responses_.size(), 2u);
  EXPECT_EQ(responses_[0].code, StatusCode::kFailedPrecondition);
  EXPECT_EQ(responses_[1].code, StatusCode::kFailedPrecondition);
}

TEST_F(RpcTest, RetriedWriteUnderResponseLossExecutesOnceEndToEnd) {
  // The full at-most-once story: the server executes the write on the first
  // delivery, the response is lost, the client's retry delivers a duplicate,
  // and the dedup table replays the original response instead of re-running
  // the handler.
  NodeId server_node = world_.hosts[0];
  NodeId client_node = world_.hosts[5];
  RpcServer server(&transport_, server_node, 700);
  uint64_t executions = 0;
  server.RegisterMethod("counter.add",
                        [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
                          ByteWriter w;
                          w.WriteU64(++executions);
                          return w.Take();
                        },
                        kNonIdempotent);

  // Lose every response until t = 550 ms; requests flow normally.
  network_.SetLinkDropProbability(server_node, client_node, 1.0);
  simulator_.ScheduleAt(550 * kMillisecond, [&] {
    network_.ClearLinkDropProbability(server_node, client_node);
  });

  Channel client(&transport_, client_node);
  Result<PayloadView> got = Unavailable("pending");
  CallOptions options;
  options.deadline = 500 * kMillisecond;
  options.retry.attempts = 3;
  options.retry.backoff = 100 * kMillisecond;
  client.Call(server.endpoint(), "counter.add", {},
              [&](Result<PayloadView> result) { got = std::move(result); }, options);
  simulator_.Run();

  ASSERT_TRUE(got.ok());
  ByteReader r(*got);
  EXPECT_EQ(r.ReadU64().value(), 1u);  // the first (only) execution's response
  EXPECT_EQ(executions, 1u);
  EXPECT_EQ(server.duplicates_suppressed(), 1u);
  EXPECT_EQ(client.stats().retries, 1u);
  // The per-link counter names the link that lost the response.
  EXPECT_GE(network_.stats().dropped_per_link.at({server_node, client_node}), 1u);
  EXPECT_EQ(network_.stats().dropped_per_link.count({client_node, server_node}), 0u);
}

// ------------------------------------------------------- Fault injection

TEST_F(NetworkTest, PerLinkLossOverridesUniformAndCountsPerLink) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  int delivered = 0;
  network_.RegisterPort(a, 1, [&](const Delivery&) { ++delivered; });
  network_.RegisterPort(b, 1, [&](const Delivery&) { ++delivered; });

  network_.SetLinkDropProbability(a, b, 1.0);  // directed: only a -> b
  network_.Send({a, 2}, {b, 1}, Bytes(8));
  network_.Send({b, 2}, {a, 1}, Bytes(8));
  simulator_.Run();
  EXPECT_EQ(delivered, 1);  // b -> a got through
  EXPECT_EQ(network_.stats().dropped_messages, 1u);
  EXPECT_EQ(network_.stats().dropped_per_link.at({a, b}), 1u);
  EXPECT_EQ(network_.stats().dropped_per_link.count({b, a}), 0u);

  network_.ClearLinkDropProbability(a, b);
  network_.Send({a, 2}, {b, 1}, Bytes(8));
  simulator_.Run();
  EXPECT_EQ(delivered, 2);
}

TEST_F(NetworkTest, PartitionIsBidirectionalAndAutoHeals) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  int delivered = 0;
  network_.RegisterPort(a, 1, [&](const Delivery&) { ++delivered; });
  network_.RegisterPort(b, 1, [&](const Delivery&) { ++delivered; });

  network_.PartitionPair(a, b, 5 * kSecond);
  EXPECT_TRUE(network_.IsPartitioned(a, b));
  EXPECT_TRUE(network_.IsPartitioned(b, a));
  network_.Send({a, 2}, {b, 1}, Bytes(8));
  network_.Send({b, 2}, {a, 1}, Bytes(8));
  simulator_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network_.stats().partitioned_messages, 2u);
  EXPECT_EQ(network_.stats().dropped_per_link.at({a, b}), 1u);
  EXPECT_EQ(network_.stats().dropped_per_link.at({b, a}), 1u);

  // The partition expires on the virtual clock; traffic flows again.
  simulator_.ScheduleAt(6 * kSecond, [&] {
    EXPECT_FALSE(network_.IsPartitioned(a, b));
    network_.Send({a, 2}, {b, 1}, Bytes(8));
  });
  simulator_.Run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, PartitionCutsMessagesAlreadyInFlight) {
  NodeId a = world_.hosts[0];
  NodeId far = world_.hosts.back();  // other continent: tens of ms in flight
  int delivered = 0;
  network_.RegisterPort(far, 1, [&](const Delivery&) { ++delivered; });
  network_.Send({a, 2}, {far, 1}, Bytes(8));
  network_.PartitionPair(a, far, 5 * kSecond);  // cut while the message flies
  simulator_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network_.stats().partitioned_messages, 1u);
}

TEST_F(NetworkTest, RepartitioningNeverShortensTheWindow) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  network_.PartitionPair(a, b, 10 * kSecond);
  // A shorter re-partition must not pull the heal time earlier.
  network_.PartitionPair(a, b, 200 * kMillisecond);
  simulator_.ScheduleAt(5 * kSecond,
                        [&] { EXPECT_TRUE(network_.IsPartitioned(a, b)); });
  simulator_.ScheduleAt(11 * kSecond,
                        [&] { EXPECT_FALSE(network_.IsPartitioned(a, b)); });
  simulator_.Run();
}

TEST_F(NetworkTest, CrashCutsMessagesInFlightFromTheCrashedNode) {
  NodeId a = world_.hosts[0];
  NodeId far = world_.hosts.back();
  int delivered = 0;
  network_.RegisterPort(far, 1, [&](const Delivery&) { ++delivered; });
  network_.Send({a, 2}, {far, 1}, Bytes(8));
  network_.CrashNode(a);  // the sender dies while its message is on the wire
  simulator_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(network_.stats().down_node_messages, 1u);
}

TEST_F(NetworkTest, HealPartitionRestoresTrafficImmediately) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  int delivered = 0;
  network_.RegisterPort(b, 1, [&](const Delivery&) { ++delivered; });
  network_.PartitionPair(a, b, 1000 * kSecond);
  network_.HealPartition(a, b);
  network_.Send({a, 2}, {b, 1}, Bytes(8));
  simulator_.Run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, CrashNodeDetachesPortsAndRestartReattachesThem) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  int delivered = 0;
  network_.RegisterPort(b, 1, [&](const Delivery&) { ++delivered; });

  network_.CrashNode(b);
  EXPECT_TRUE(network_.IsCrashed(b));
  EXPECT_FALSE(network_.IsNodeUp(b));
  network_.Send({a, 2}, {b, 1}, Bytes(8));
  simulator_.Run();
  EXPECT_EQ(delivered, 0);

  network_.RestartNode(b);
  EXPECT_FALSE(network_.IsCrashed(b));
  // The stashed handler survived the reboot, like §7 persistent state.
  network_.Send({a, 2}, {b, 1}, Bytes(8));
  simulator_.Run();
  EXPECT_EQ(delivered, 1);
}

TEST_F(NetworkTest, PortsChangedWhileCrashedWinOverTheStash) {
  NodeId a = world_.hosts[0];
  NodeId b = world_.hosts[1];
  int old_handler = 0, new_handler = 0, second_port = 0;
  network_.RegisterPort(b, 1, [&](const Delivery&) { ++old_handler; });
  network_.RegisterPort(b, 2, [&](const Delivery&) { ++second_port; });

  network_.CrashNode(b);
  // A service rebuilt from a checkpoint re-registers port 1; the one on port 2
  // is torn down for good.
  network_.RegisterPort(b, 1, [&](const Delivery&) { ++new_handler; });
  network_.UnregisterPort(b, 2);
  network_.RestartNode(b);

  network_.Send({a, 9}, {b, 1}, Bytes(8));
  network_.Send({a, 9}, {b, 2}, Bytes(8));
  simulator_.Run();
  EXPECT_EQ(old_handler, 0);
  EXPECT_EQ(new_handler, 1);
  EXPECT_EQ(second_port, 0);
}

// ---------------------------------------------------------------- TypedMethod

namespace typed_test {

struct PingRequest {
  uint64_t value = 0;

  static constexpr auto kWireFields = std::tuple(&PingRequest::value);
};

struct PingResponse {
  uint64_t doubled = 0;

  static constexpr auto kWireFields = std::tuple(&PingResponse::doubled);
};

constexpr TypedMethod<PingRequest, PingResponse> kPing{"test.ping"};

}  // namespace typed_test

TEST_F(RpcTest, TypedMethodRoundTripAndDecodeErrors) {
  using typed_test::kPing;
  using typed_test::PingRequest;
  using typed_test::PingResponse;

  RpcServer server(&transport_, world_.hosts[0], 700);
  kPing.Register(&server, [](const RpcContext&,
                             const PingRequest& request) -> Result<PingResponse> {
    return PingResponse{request.value * 2};
  });

  Channel client(&transport_, world_.hosts[5]);
  uint64_t got = 0;
  kPing.Call(&client, server.endpoint(), PingRequest{21},
             [&](Result<PingResponse> result) {
               ASSERT_TRUE(result.ok());
               got = result->doubled;
             });
  simulator_.Run();
  EXPECT_EQ(got, 42u);

  // A malformed request is rejected by the registration shim, not the handler.
  Status bad;
  client.Call(server.endpoint(), "test.ping", Bytes{0x01},
              [&](Result<PayloadView> result) { bad = result.status(); });
  simulator_.Run();
  EXPECT_EQ(bad.code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace globe::sim
