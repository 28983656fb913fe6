// Bounded decoding: a frame that promises a huge count must not make the
// decoder allocate for items the frame cannot hold (paper §6.1: servers stay
// available under bogus protocol messages). The DNS primary decodes a
// dns.update before it checks the TSIG MAC, so an unauthenticated 4-byte frame
// reaches the decoder.
//
// This binary replaces the global allocation functions to record the largest
// single allocation while a decode runs, to count the allocations of one RPC
// call, and to measure the live heap that remote reads, large frames and
// quorum writes leave behind, which is why it stands alone: the counter cannot
// disturb any other suite.

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <memory>
#include <string>
#include <vector>

#include "src/dns/message.h"
#include "src/dns/zone.h"
#include "src/dso/client_server.h"
#include "src/dso/master_slave.h"
#include "src/dso/runtime.h"
#include "src/gdn/package.h"
#include "src/gdn/search.h"
#include "src/gls/deploy.h"
#include "src/gls/directory.h"
#include "src/gos/object_server.h"
#include "src/sim/backend.h"
#include "src/sim/rpc.h"
#include "src/util/rng.h"
#include "src/util/wire.h"
#include "tests/test_util.h"

namespace {

bool g_counting = false;
size_t g_largest = 0;
size_t g_allocations = 0;
size_t g_allocated_bytes = 0;
// Bytes held by live operator-new allocations, counted always.
int64_t g_live_bytes = 0;

void* CountedAlloc(size_t size) {
  if (g_counting) {
    ++g_allocations;
    g_allocated_bytes += size;
    g_largest = size > g_largest ? size : g_largest;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    g_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
    return p;
  }
  throw std::bad_alloc();
}

void CountedFree(void* p) noexcept {
  if (p != nullptr) {
    g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  }
  std::free(p);
}

}  // namespace

void* operator new(size_t size) { return CountedAlloc(size); }
void* operator new[](size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }

namespace globe {
namespace {

// The largest single allocation a decode may make, as a multiple of the frame
// it decodes. A count is admitted only if the remaining bytes hold that many
// items at their smallest encoding, so reserving for it costs at most
// sizeof(item) / smallest encoding per frame byte; the widest ratio among the
// wire types is UpdateRequest::Deletion's (40 B in memory, 4 B on the wire).
constexpr size_t kMaxAllocationPerFrameByte = 16;

// Decodes `frame` as a T under the counter; returns the largest allocation.
template <typename T>
size_t LargestAllocationDecoding(const Bytes& frame, bool* decoded) {
  g_largest = 0;
  g_counting = true;
  *decoded = wire::Decode<T>(frame).ok();
  g_counting = false;
  return g_largest;
}

// 100000, the item cap, as a varint.
const Bytes kCapCount = {0xa0, 0x8d, 0x06};

Bytes Frame(Bytes prefix, const Bytes& suffix = kCapCount) {
  prefix.insert(prefix.end(), suffix.begin(), suffix.end());
  return prefix;
}

template <typename T>
void ExpectBounded(const char* what, const Bytes& frame) {
  bool decoded = true;
  size_t largest = LargestAllocationDecoding<T>(frame, &decoded);
  EXPECT_FALSE(decoded) << what;
  EXPECT_LE(largest, kMaxAllocationPerFrameByte * frame.size())
      << what << ": " << frame.size() << "-byte frame";
}

// Frames that promise the item cap in three bytes. A decoder that reserved
// for a count before checking it against the payload would allocate 7.2 MB for
// the additions of a 4-byte dns.update, 4 MB for the deletions of a 5-byte
// one, and 7.2 MB for the answers of a 6-byte dns.query response or the
// records of a 12-byte zone transfer.
TEST(BoundedDecodingTest, DnsCountsCannotReserveBeyondTheFrame) {
  ExpectBounded<dns::UpdateRequest>("dns.update additions", Frame({0x00}));
  ExpectBounded<dns::UpdateRequest>("dns.update deletions", Frame({0x00, 0x00}));
  ExpectBounded<dns::QueryResponse>("dns.query answers", Frame({0x00, 0x00, 0x00}));

  Bytes zone_frame = Frame({0x00, 0, 0, 0, 0, 0, 0, 0, 0});
  ASSERT_EQ(zone_frame.size(), 12u);
  g_largest = 0;
  g_counting = true;
  bool decoded = dns::Zone::Deserialize(zone_frame).ok();
  g_counting = false;
  EXPECT_FALSE(decoded);
  EXPECT_LE(g_largest, kMaxAllocationPerFrameByte * zone_frame.size());
}

TEST(BoundedDecodingTest, EveryVectorCountIsCheckedBeforeReserving) {
  ExpectBounded<gls::LookupResult>("gls.lookup addresses", Frame({}));
  ExpectBounded<gls::BatchAddressRequest>("gls.insert items", Frame({}));
  ExpectBounded<gls::BatchPointerRequest>("gls.install_ptr oids", Frame({0, 0, 0, 0}));
  ExpectBounded<gos::ListReplicasResponse>("gos.list_replicas oids", Frame({}));
  ExpectBounded<gos::CreateFirstReplicaRequest>("gos maintainers", Frame({0, 0, 0, 0}));
  // A count far beyond the cap, and one just over what the payload holds.
  const Bytes two_to_the_63 = {0x80, 0x80, 0x80, 0x80, 0x80,
                               0x80, 0x80, 0x80, 0x80, 0x01};
  ExpectBounded<gls::LookupResult>("2^63 addresses", Frame({}, two_to_the_63));
  ExpectBounded<gos::ListReplicasResponse>("one OID too many",
                                           Frame({0x03}, Bytes(32, 0)));
  // DSO method results: a replica's answer is a peer's count too.
  const Bytes two_to_the_40 = {0x80, 0x80, 0x80, 0x80, 0x80, 0x20};
  ExpectBounded<gdn::pkg::Listing>("pkg.listContents files", two_to_the_40);
  ExpectBounded<gdn::search::Matches>("idx.search matches", two_to_the_40);
  ExpectBounded<gdn::pkg::Listing>("pkg.listContents at the cap", Frame({}));
}

// The check rejects only what the payload cannot hold: a frame whose count
// matches its items decodes, and reserves once for exactly those items.
TEST(BoundedDecodingTest, HonestCountsDecode) {
  gos::ListReplicasResponse listed;
  listed.oids.resize(64);
  Bytes frame = wire::Encode(listed);
  bool decoded = false;
  size_t largest = LargestAllocationDecoding<gos::ListReplicasResponse>(frame, &decoded);
  EXPECT_TRUE(decoded);
  EXPECT_EQ(largest, 64 * sizeof(gls::ObjectId));
}

// Channel::Call keeps the method name as a view, so a name longer than the
// 15 characters libstdc++ stores inline costs no allocation per call.
TEST(CallAllocationTest, LongMethodNameCostsNoExtraAllocation) {
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  sim::RpcServer server(&transport, world.hosts[0], 700);
  auto echo = [](const sim::RpcContext&, ByteSpan request) -> Result<Bytes> {
    return Bytes(request.begin(), request.end());
  };
  const char* const kShortName = "gls.lookup";
  const char* const kLongName = "gos.create_first_replica";
  server.RegisterMethod(kShortName, echo);
  server.RegisterMethod(kLongName, echo);
  sim::Channel channel(&transport, world.hosts[1]);

  auto allocations_of_one_call = [&](const char* method) {
    auto call = [&] {
      channel.Call(server.endpoint(), method, Bytes(16, 0x5a),
                   [](Result<sim::PayloadView> result) { EXPECT_TRUE(result.ok()); });
      simulator.Run();
    };
    call();  // warm-up: the peer entry and every buffer's high-water mark
    g_allocations = 0;
    g_counting = true;
    call();
    g_counting = false;
    return g_allocations;
  };
  size_t short_name = allocations_of_one_call(kShortName);
  size_t long_name = allocations_of_one_call(kLongName);
  EXPECT_GT(short_name, 0u);
  EXPECT_EQ(long_name, short_name);
}

// One read of a whole file through a bound replica: marshalling the call,
// serving it and handing the typed result back. The file is copied once, out
// of the package, and the result reaches the caller moved. The count bound is
// what the same read cost through the hand-written package proxy that the
// method declarations replaced (this path makes five).
TEST(CallAllocationTest, FileReadThroughABoundReplica) {
  constexpr size_t kFileBytes = 64 * 1024;
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  dso::BoundObject bound;
  bound.replication = std::make_unique<dso::ClientServerServer>(
      &transport, world.hosts[0], std::make_unique<gdn::PackageObject>());
  bound.control = std::make_unique<dso::ControlObject>(bound.replication.get());
  Status added = Unavailable("pending");
  bound.Call(gdn::pkg::kAddFile, {"dist.tgz", Bytes(kFileBytes, 0x5a)},
             [&](Result<sim::EmptyMessage> r) { added = r.status(); });
  simulator.Run();
  ASSERT_TRUE(added.ok()) << added;

  size_t served = 0;
  auto read = [&] {
    bound.Call(gdn::pkg::kGetFileContents, {"dist.tgz"},
               [&](Result<Bytes> r) { served += r.ok() ? r->size() : 0; });
    simulator.Run();
  };
  read();  // warm-up
  g_allocations = 0;
  g_allocated_bytes = 0;
  g_counting = true;
  read();
  g_counting = false;
  EXPECT_EQ(served, 2 * kFileBytes);
  EXPECT_LE(g_allocations, 6u);
  EXPECT_LT(g_allocated_bytes, 2 * kFileBytes);  // one copy of the file
}

// A thin proxy's reads leave nothing behind at the replica. Sent on the
// at-most-once dso.invoke, each read's response would stay in the dedup table
// for its 120 s TTL: 100 reads of a 64 KB value would keep 6.4 MB.
TEST(RemoteReadRetentionTest, ReadsOfALargeValueRetainNothing) {
  constexpr size_t kValueBytes = 64 * 1024;
  constexpr int kReads = 100;
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  dso::ClientServerServer server(&transport, world.hosts[0],
                                 std::make_unique<testutil::KvObject>());
  dso::RemoteProxy proxy(&transport, world.hosts[1], *server.contact_address());
  Status written = Unavailable("pending");
  server.Invoke(testutil::KvPut("dist.tgz", std::string(kValueBytes, 'x')),
                [&](Result<Bytes> r) { written = r.status(); });
  simulator.Run();
  ASSERT_TRUE(written.ok()) << written;

  int answered = 0;
  auto read = [&] {
    proxy.Invoke(testutil::KvGet("dist.tgz"), [&](Result<Bytes> r) {
      answered += r.ok() && r->size() > kValueBytes ? 1 : 0;
    });
    simulator.Run();
  };
  read();  // warm-up: the peer entries and every buffer's high-water mark
  const int64_t before = g_live_bytes;
  for (int i = 0; i < kReads; ++i) {
    read();
  }
  const int64_t grown = g_live_bytes - before;
  EXPECT_EQ(answered, kReads + 1);
  EXPECT_LT(grown, static_cast<int64_t>(kReads * kValueBytes / 10))
      << grown << " bytes still live after " << kReads << " reads";
}

// Frames are encoded into one scratch per thread, not one per endpoint. 32
// replicas each answering a 64 KB read through their own proxy, and 32
// channels each sending a 64 KB request, leave the live heap less than a few
// frames larger; a scratch per server and per channel would keep 64 of them.
TEST(FrameRetentionTest, LargeFramesLeaveNoBufferPerEndpoint) {
  constexpr size_t kFrameBytes = 64 * 1024;
  constexpr int kEndpoints = 32;
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  const std::string value(kFrameBytes, 'x');

  // Endpoint 0 warms the thread's scratch and the allocator up; 1..32 are
  // measured.
  std::vector<std::unique_ptr<dso::ClientServerServer>> replicas;
  std::vector<std::unique_ptr<dso::RemoteProxy>> proxies;
  std::vector<std::unique_ptr<sim::Channel>> channels;
  sim::RpcServer sink(&transport, world.hosts[0], 700);
  sink.RegisterMethod("sink", [](const sim::RpcContext&, ByteSpan) -> Result<Bytes> {
    return Bytes{};
  });
  for (int i = 0; i <= kEndpoints; ++i) {
    replicas.push_back(std::make_unique<dso::ClientServerServer>(
        &transport, world.hosts[0], std::make_unique<testutil::KvObject>()));
    replicas.back()->Invoke(testutil::KvPut("dist.tgz", value), [](Result<Bytes> r) {
      EXPECT_TRUE(r.ok()) << r.status();
    });
    proxies.push_back(std::make_unique<dso::RemoteProxy>(
        &transport, world.hosts[1], *replicas.back()->contact_address()));
    channels.push_back(std::make_unique<sim::Channel>(&transport, world.hosts[1]));
  }
  simulator.Run();

  int answered = 0;
  auto exchange = [&](int i) {
    proxies[i]->Invoke(testutil::KvGet("dist.tgz"), [&](Result<Bytes> r) {
      answered += r.ok() && r->size() > kFrameBytes ? 1 : 0;
    });
    channels[i]->Call(sink.endpoint(), "sink", Bytes(kFrameBytes, 0x5a),
                      [&](Result<sim::PayloadView> r) { answered += r.ok() ? 1 : 0; });
    simulator.Run();
  };
  exchange(0);
  const int64_t before = g_live_bytes;
  for (int i = 1; i <= kEndpoints; ++i) {
    exchange(i);
  }
  const int64_t grown = g_live_bytes - before;
  EXPECT_EQ(answered, 2 * (kEndpoints + 1));
  EXPECT_LT(grown, static_cast<int64_t>(4 * kFrameBytes))
      << grown << " bytes still live after " << 2 * kEndpoints << " large frames";
}

// A quorum round's rollback point dies with the round: after committed writes
// the primary holds its 64 KB state once, not once more for a rollback that
// can no longer happen.
TEST(QuorumRetentionTest, CommittedRoundKeepsOneCopyOfTheState) {
  constexpr size_t kValueBytes = 64 * 1024;
  sim::Simulator simulator;
  sim::UniformWorld world = sim::BuildUniformWorld({2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr);
  Rng rng(7);
  dso::FailoverConfig failover;
  failover.enabled = true;
  failover.oid = gls::ObjectId::Generate(&rng);
  failover.leaf_directory = deployment.LeafDirectoryFor(world.hosts[0]);
  failover.quorum = true;
  dso::MasterSlaveMaster primary(&transport, world.hosts[0],
                                 std::make_unique<testutil::KvObject>(), nullptr,
                                 failover);
  // Lease renewals keep the queue busy: drive time, never drain.
  auto run_for = [&](sim::SimTime duration) {
    simulator.RunUntil(simulator.Now() + duration);
  };
  Status started = Unavailable("pending");
  primary.Start([&](Status s) { started = s; });
  run_for(sim::kSecond);
  ASSERT_TRUE(started.ok()) << started;

  int committed = 0;
  auto write = [&](const std::string& value) {
    primary.Invoke(testutil::KvPut("dist.tgz", value),
                   [&](Result<Bytes> r) { committed += r.ok() ? 1 : 0; });
    run_for(sim::kSecond);
  };
  write("");  // warm-up: the arbiter's records, the dedup tables
  const int64_t before = g_live_bytes;
  write(std::string(kValueBytes, 'x'));
  write(std::string(kValueBytes, 'y'));
  const int64_t grown = g_live_bytes - before;
  EXPECT_EQ(committed, 3);
  EXPECT_EQ(primary.group()->stats().quorum_commits, 3u);
  EXPECT_GE(grown, static_cast<int64_t>(kValueBytes));
  EXPECT_LT(grown, static_cast<int64_t>(kValueBytes * 3 / 2))
      << grown << " bytes live for a " << kValueBytes << "-byte state";
}

}  // namespace
}  // namespace globe
