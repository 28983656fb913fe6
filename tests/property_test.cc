// Cross-cutting property tests: invariants that must hold for arbitrary inputs —
// decoders never crash on random bytes, every wire message round-trips, refuses
// every truncation and keeps its golden bytes, a truncated GOS checkpoint restores
// nothing, the GLS agrees with a reference model under random operation sequences,
// replicated objects converge to the reference state, the DNS cache never serves
// expired records.

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/dns/gns.h"
#include "src/dns/message.h"
#include "src/dns/resolver.h"
#include "src/dns/server.h"
#include "src/dns/zone.h"
#include "src/dso/client_server.h"
#include "src/dso/master_slave.h"
#include "src/dso/wire.h"
#include "src/gdn/package.h"
#include "src/gdn/search.h"
#include "src/gls/deploy.h"
#include "src/gls/wire.h"
#include "src/gos/object_server.h"
#include "src/http/http.h"
#include "tests/test_util.h"
#include "src/sim/backend.h"

namespace globe {
namespace {

using sim::BuildUniformWorld;
using sim::NodeId;
using sim::UniformWorld;

// ---------------------------------------------------------------- Decoder fuzz

// Every wire-format decoder must tolerate arbitrary bytes: return an error or a
// value, never crash or hang (paper §6.1 availability). The typed RPC messages
// are covered by WireMessageTest below; these are the hand-written formats.
class DecoderFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecoderFuzzTest, HandWrittenDecodersSurviveRandomBytes) {
  Rng rng(GetParam());
  for (int i = 0; i < 500; ++i) {
    Bytes junk = rng.RandomBytes(rng.UniformInt(200));
    { auto r = dns::Zone::Deserialize(junk); (void)r; }
    { auto r = http::HttpRequest::Parse(junk); (void)r; }
    { auto r = http::HttpResponse::Parse(junk); (void)r; }
  }
}

// Mutated valid frames: take a real message, flip bytes, decode.
TEST_P(DecoderFuzzTest, MutatedValidFramesSurvive) {
  Rng rng(GetParam() + 7);
  dns::UpdateRequest update;
  update.zone = "gdn.cs.vu.nl";
  update.additions.push_back({"pkg.gdn.cs.vu.nl", dns::RrType::kTxt, 3600, "aabb"});
  update.key_name = "k";
  update.sequence = 9;
  dns::TsigSign(&update, ToBytes("key"));
  Bytes encoded = wire::Encode(update);

  for (int i = 0; i < 300; ++i) {
    Bytes mutated = encoded;
    int flips = 1 + static_cast<int>(rng.UniformInt(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.UniformInt(mutated.size())] ^= static_cast<uint8_t>(rng.NextU64());
    }
    auto decoded = wire::Decode<dns::UpdateRequest>(mutated);
    if (decoded.ok()) {
      // If it still parses, TSIG must catch any semantic change.
      bool same_bytes = mutated == encoded;
      EXPECT_EQ(dns::TsigVerify(*decoded, ToBytes("key")), same_bytes);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzzTest, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------- Wire messages

// Fills a wire value with random content by walking the same field lists the
// codec walks, so a new message type needs no generator of its own.
template <typename T>
void RandomFill(Rng* rng, T* out);
template <typename T>
void RandomFill(Rng* rng, std::vector<T>* out);
template <typename A, typename B>
void RandomFill(Rng* rng, std::pair<A, B>* out);
template <size_t N>
void RandomFill(Rng* rng, std::array<uint8_t, N>* out);
template <typename T>
void RandomFill(Rng* rng, wire::Nested<T>* out);
void RandomFill(Rng* rng, std::string* out) {
  *out = ToString(rng->RandomBytes(rng->UniformInt(12)));
}
void RandomFill(Rng* rng, Bytes* out) { *out = rng->RandomBytes(rng->UniformInt(12)); }

template <typename T>
void RandomFill(Rng* rng, T* out) {
  if constexpr (wire::Message<T>) {
    std::apply([&](auto... field) { (RandomFill(rng, &(out->*field)), ...); },
               T::kWireFields);
  } else if constexpr (std::is_same_v<T, bool>) {
    *out = rng->Bernoulli(0.5);
  } else {
    static_assert(std::is_integral_v<T> || std::is_enum_v<T>);
    *out = static_cast<T>(rng->NextU64());
  }
}
template <typename T>
void RandomFill(Rng* rng, std::vector<T>* out) {
  out->resize(rng->UniformInt(4));
  for (T& item : *out) {
    RandomFill(rng, &item);
  }
}
template <typename A, typename B>
void RandomFill(Rng* rng, std::pair<A, B>* out) {
  RandomFill(rng, &out->first);
  RandomFill(rng, &out->second);
}
template <size_t N>
void RandomFill(Rng* rng, std::array<uint8_t, N>* out) {
  for (uint8_t& b : *out) {
    b = static_cast<uint8_t>(rng->NextU64());
  }
}
template <typename T>
void RandomFill(Rng* rng, wire::Nested<T>* out) {
  RandomFill(rng, &out->value);
}

// Every typed RPC message in the tree.
using WireMessages = ::testing::Types<
    dso::VersionedState, dso::EndpointMessage, dso::VersionMessage, dso::PushAck,
    dso::LeaseMessage, dso::Invocation, dso::ApplyMessage, gls::AddressRequest,
    gls::BatchAddressRequest, gls::PointerRequest, gls::BatchPointerRequest,
    gls::OidMessage, gls::LookupWireRequest, gls::MasterClaim, gls::ClaimOutcome,
    gls::LookupResult, gos::CreateFirstReplicaRequest,
    gos::CreateFirstReplicaResponse, gos::CreateReplicaRequest,
    gos::CreateReplicaResponse, gos::RemoveReplicaRequest, gos::ListReplicasResponse,
    dns::GnsAddRequest, dns::GnsRemoveRequest, dns::QueryRequest, dns::QueryResponse,
    dns::UpdateRequest, dns::ZoneTransfer, gdn::FileInfo, gdn::pkg::FileArgs,
    gdn::pkg::PathArgs, gdn::pkg::Text, gdn::pkg::Listing, gdn::SearchMatch,
    gdn::search::NameArgs, gdn::search::QueryArgs, gdn::search::Matches>;

template <typename T>
class WireMessageTest : public ::testing::Test {};
TYPED_TEST_SUITE(WireMessageTest, WireMessages);

// The same inputs DecoderFuzzTest feeds the hand-written decoders: seeds 1-4,
// 500 inputs each.
TYPED_TEST(WireMessageTest, RandomBytesDecodeWithoutCrashing) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    for (int i = 0; i < 500; ++i) {
      auto decoded = wire::Decode<TypeParam>(rng.RandomBytes(rng.UniformInt(200)));
      (void)decoded;
    }
  }
}

TYPED_TEST(WireMessageTest, RandomInstancesRoundTrip) {
  Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    TypeParam message;
    RandomFill(&rng, &message);
    Bytes encoded = wire::Encode(message);
    auto decoded = wire::Decode<TypeParam>(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    ASSERT_EQ(wire::Encode(*decoded), encoded);
  }
}

// A message is complete or refused: no field is optional, so no truncation
// decodes into a message with defaulted fields.
TYPED_TEST(WireMessageTest, EveryStrictPrefixFailsToDecode) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    TypeParam message;
    RandomFill(&rng, &message);
    Bytes encoded = wire::Encode(message);
    for (size_t length = 0; length < encoded.size(); ++length) {
      EXPECT_FALSE(wire::Decode<TypeParam>(ByteSpan(encoded.data(), length)).ok())
          << "prefix of " << length << " of " << encoded.size() << " bytes decoded";
    }
  }
}

// Every declared method of the GDN's semantics objects, fed random and
// truncated arguments: each call returns a value or a status, and arguments
// cut short are refused before a handler runs.
template <typename Args, typename Res>
void FeedBadArguments(Rng* rng, dso::SemanticsObject* object,
                      const dso::Method<Args, Res>& method) {
  for (int i = 0; i < 100; ++i) {
    Args args;
    RandomFill(rng, &args);
    dso::Invocation invocation = method.Marshal(args);
    const Bytes whole = invocation.args;
    for (size_t length = 0; length < whole.size(); ++length) {
      invocation.args.assign(whole.begin(), whole.begin() + length);
      EXPECT_FALSE(object->Invoke(invocation).ok())
          << method.name() << ": prefix of " << length << " bytes ran";
    }
    invocation.args = rng->RandomBytes(rng->UniformInt(64));
    (void)object->Invoke(invocation);
  }
}

TEST_P(DecoderFuzzTest, DeclaredMethodsSurviveBadArguments) {
  Rng rng(GetParam() + 11);
  gdn::PackageObject package;
  FeedBadArguments(&rng, &package, gdn::pkg::kAddFile);
  FeedBadArguments(&rng, &package, gdn::pkg::kRemoveFile);
  FeedBadArguments(&rng, &package, gdn::pkg::kSetDescription);
  FeedBadArguments(&rng, &package, gdn::pkg::kListContents);
  FeedBadArguments(&rng, &package, gdn::pkg::kGetFileContents);
  FeedBadArguments(&rng, &package, gdn::pkg::kGetFileInfo);
  FeedBadArguments(&rng, &package, gdn::pkg::kGetDescription);
  gdn::SearchIndexObject index;
  FeedBadArguments(&rng, &index, gdn::search::kRegister);
  FeedBadArguments(&rng, &index, gdn::search::kUnregister);
  FeedBadArguments(&rng, &index, gdn::search::kSearch);
}

// One fixed instance of every message type, against hex captured from the
// per-message encoders that preceded the codec, so the deployed wire format
// (and with it every TSIG MAC) cannot drift. The DSO methods' rows hold each
// method's arguments as marshalled and its result as the semantics object
// answers it, against hex captured from the hand-written builders and
// dispatchers their declarations replaced.
TEST(WireGoldenTest, EveryMessageKeepsItsBytes) {
  const gls::ObjectId oid = *gls::ObjectId::FromHex("00112233445566778899aabbccddeeff");
  const gls::ObjectId oid2 = *gls::ObjectId::FromHex("f0e1d2c3b4a5968778695a4b3c2d1e0f");
  const gls::ContactAddress addr{{0x01020304, 0x0506}, 0x0708, gls::ReplicaRole::kCache};
  const gls::ContactAddress addr2{{7, 701}, 2, gls::ReplicaRole::kSlave};
  const dns::ResourceRecord rr1{"gimp.gdn.cs.vu.nl", dns::RrType::kTxt, 3600, "oid=abc"};
  const dns::ResourceRecord rr2{"ns.gdn.cs.vu.nl", dns::RrType::kNs, 60, "ns1"};
  dns::UpdateRequest update{"gdn.cs.vu.nl",
                            {rr1},
                            {{"old.gdn.cs.vu.nl", dns::RrType::kTxt, true}},
                            "gns-key",
                            77,
                            {}};
  dns::TsigSign(&update, ToBytes("secret"));
  dns::ZoneTransfer transfer{{1, 2, 3}, "axfr-key", 5, {}};
  dns::TsigSign(&transfer, ToBytes("secret"));
  gdn::PackageObject package;
  gdn::SearchIndexObject index;
  auto answer = [](dso::SemanticsObject* object, const dso::Invocation& invocation) {
    Result<Bytes> result = object->Invoke(invocation);
    EXPECT_TRUE(result.ok()) << invocation.method << ": " << result.status();
    return result.ok() ? *result : Bytes{};
  };
  answer(&package, gdn::pkg::kAddFile.Marshal({"bin/tool", {1, 2, 3}}));
  answer(&package, gdn::pkg::kSetDescription.Marshal({"demo"}));
  answer(&index, gdn::search::kRegister.Marshal({"/apps/gimp", "image editor"}));
  // The digest of {1, 2, 3}, length-prefixed, as a package lists it.
  const std::string tool_sha256 =
      "403033393035386336663263306362343932633533336230613464313465663737"
      "6363306637386162636363656435323837643834613161323031316366623831";

  const std::vector<std::tuple<const char*, Bytes, std::string>> cases = {
      {"dso::VersionedState",
       wire::Encode(
           dso::VersionedState{0x1122334455667788ULL, 2, 3, {0xde, 0xad, 0xbe, 0xef}}),
       "88776655443322110200000000000000030000000000000004deadbeef"},
      {"dso::EndpointMessage",
       wire::Encode(dso::EndpointMessage{{0x0a0b0c0d, 0x0e0f}}),
       "0d0c0b0a0f0e"},
      {"dso::VersionMessage",
       wire::Encode(dso::VersionMessage{9, 10}),
       "09000000000000000a00000000000000"},
      {"dso::PushAck",
       wire::Encode(dso::PushAck{true, 11, 12}),
       "010b000000000000000c00000000000000"},
      {"dso::LeaseMessage",
       wire::Encode(dso::LeaseMessage{13, 14, 15, {16, 17}}),
       "0d000000000000000e000000000000000f00000000000000100000001100"},
      {"dso::Invocation",
       wire::Encode(dso::Invocation{"pkg.addFile", {1, 2, 3}, true}),
       "0b706b672e61646446696c650301020301"},
      {"dso::ApplyMessage",
       wire::Encode(dso::ApplyMessage{18, 19, 20, {dso::Invocation{"m", {4, 5}, false}}}),
       "12000000000000001300000000000000140000000000000006016d02040500"},
      {"gls::AddressRequest",
       wire::Encode(gls::AddressRequest{oid, addr}),
       "00112233445566778899aabbccddeeff040302010605080702"},
      {"gls::BatchAddressRequest",
       wire::Encode(gls::BatchAddressRequest{{{oid, addr}, {oid2, addr2}}}),
       "0200112233445566778899aabbccddeeff040302010605080702f0e1d2c3b4a5"
       "968778695a4b3c2d1e0f07000000bd02020001"},
      {"gls::PointerRequest",
       wire::Encode(gls::PointerRequest{oid, 0x21, false}),
       "00112233445566778899aabbccddeeff2100000000"},
      {"gls::BatchPointerRequest",
       wire::Encode(gls::BatchPointerRequest{0x22, {oid, oid2}}),
       "220000000200112233445566778899aabbccddeefff0e1d2c3b4a5968778695a"
       "4b3c2d1e0f"},
      {"gls::OidMessage",
       wire::Encode(gls::OidMessage{oid2}),
       "f0e1d2c3b4a5968778695a4b3c2d1e0f"},
      {"gls::LookupWireRequest",
       wire::Encode(gls::LookupWireRequest{oid, 3, 1, -2, true}),
       "00112233445566778899aabbccddeeff0300000001feffffff01"},
      {"gls::MasterClaim",
       wire::Encode(gls::MasterClaim{oid, addr, 4, 5, 6, true}),
       "00112233445566778899aabbccddeeff04030201060508070204000000000000"
       "000500000000000000060000000000000001"},
      {"gls::ClaimOutcome",
       wire::Encode(gls::ClaimOutcome{true, 7, addr2, 8}),
       "01070000000000000007000000bd020200010800000000000000"},
      {"gls::LookupResult",
       wire::Encode(gls::LookupResult{{addr, addr2}, 9, -1, 2, true}),
       "0204030201060508070207000000bd0202000109000000ffffffff0200000001"},
      {"gos::CreateFirstReplicaRequest",
       wire::Encode(gos::CreateFirstReplicaRequest{3, 0x0102, {0x1111, 0x2222}}),
       "030002010211110000000000002222000000000000"},
      {"gos::CreateFirstReplicaResponse",
       wire::Encode(gos::CreateFirstReplicaResponse{oid, addr}),
       "00112233445566778899aabbccddeeff040302010605080702"},
      {"gos::CreateReplicaRequest",
       wire::Encode(gos::CreateReplicaRequest{oid, 5, gls::ReplicaRole::kSlave, {42}}),
       "00112233445566778899aabbccddeeff050001012a00000000000000"},
      {"gos::CreateReplicaResponse",
       wire::Encode(gos::CreateReplicaResponse{addr2}),
       "07000000bd02020001"},
      {"gos::RemoveReplicaRequest",
       wire::Encode(gos::RemoveReplicaRequest{oid2}),
       "f0e1d2c3b4a5968778695a4b3c2d1e0f"},
      {"gos::ListReplicasResponse",
       wire::Encode(gos::ListReplicasResponse{{oid, oid2}}),
       "0200112233445566778899aabbccddeefff0e1d2c3b4a5968778695a4b3c2d1e"
       "0f"},
      {"dns::GnsAddRequest",
       wire::Encode(
           dns::GnsAddRequest{"/apps/graphics/Gimp", "00112233445566778899aabbccddeeff"}),
       "132f617070732f67726170686963732f47696d70203030313132323333343435"
       "353636373738383939616162626363646465656666"},
      {"dns::GnsRemoveRequest",
       wire::Encode(dns::GnsRemoveRequest{"/apps/x"}),
       "072f617070732f78"},
      {"dns::QueryRequest",
       wire::Encode(dns::QueryRequest{{"gimp.gdn.cs.vu.nl", dns::RrType::kTxt}}),
       "1167696d702e67646e2e63732e76752e6e6c1000"},
      {"dns::QueryResponse",
       wire::Encode(
           dns::QueryResponse{dns::Rcode::kNxDomain, true, false, {rr1, rr2}, 300}),
       "030100021167696d702e67646e2e63732e76752e6e6c1000100e0000076f6964"
       "3d6162630f6e732e67646e2e63732e76752e6e6c02003c000000036e73312c01"
       "0000"},
      {"dns::UpdateRequest",
       wire::Encode(update),
       "0c67646e2e63732e76752e6e6c011167696d702e67646e2e63732e76752e6e6c"
       "1000100e0000076f69643d61626301106f6c642e67646e2e63732e76752e6e6c"
       "10000107676e732d6b65794d00000000000000202c45bd5927b54c488e4ddbe7"
       "69f001510634bb6408ff3c87690fa4804258a37a"},
      {"dns::ZoneTransfer",
       wire::Encode(transfer),
       "0301020308617866722d6b6579050000000000000020bcc7123d743292108d9a"
       "31823e6595f66a6c258fdcbb6efcb66143b27a0d2fd3"},
      {"pkg.addFile args",
       gdn::pkg::kAddFile.Marshal({"bin/tool", {1, 2, 3}}).args,
       "0862696e2f746f6f6c03010203"},
      {"pkg.removeFile args",
       gdn::pkg::kRemoveFile.Marshal({"bin/tool"}).args,
       "0862696e2f746f6f6c"},
      {"pkg.setDescription args",
       gdn::pkg::kSetDescription.Marshal({"demo"}).args,
       "0464656d6f"},
      {"pkg.listContents args", gdn::pkg::kListContents.Marshal({}).args, ""},
      {"pkg.getFileContents args",
       gdn::pkg::kGetFileContents.Marshal({"bin/tool"}).args,
       "0862696e2f746f6f6c"},
      {"pkg.getFileInfo args",
       gdn::pkg::kGetFileInfo.Marshal({"bin/tool"}).args,
       "0862696e2f746f6f6c"},
      {"pkg.getDescription args", gdn::pkg::kGetDescription.Marshal({}).args, ""},
      {"idx.register args",
       gdn::search::kRegister.Marshal({"/apps/gimp", "image editor"}).args,
       "0a2f617070732f67696d700c696d61676520656469746f72"},
      {"idx.unregister args",
       gdn::search::kUnregister.Marshal({"/apps/gimp"}).args,
       "0a2f617070732f67696d70"},
      {"idx.search args",
       gdn::search::kSearch.Marshal({"image"}).args,
       "05696d616765"},
      {"pkg.listContents result",
       answer(&package, gdn::pkg::kListContents.Marshal({})),
       "010862696e2f746f6f6c0300000000000000" + tool_sha256},
      {"pkg.getFileContents result",
       answer(&package, gdn::pkg::kGetFileContents.Marshal({"bin/tool"})),
       "010203"},
      {"pkg.getFileInfo result",
       answer(&package, gdn::pkg::kGetFileInfo.Marshal({"bin/tool"})),
       "0862696e2f746f6f6c0300000000000000" + tool_sha256},
      {"pkg.getDescription result",
       answer(&package, gdn::pkg::kGetDescription.Marshal({})),
       "0464656d6f"},
      {"idx.search result",
       answer(&index, gdn::search::kSearch.Marshal({"image"})),
       "010a2f617070732f67696d700c696d61676520656469746f72"},
  };
  ASSERT_EQ(cases.size(), 43u);
  for (const auto& [name, encoded, golden_hex] : cases) {
    EXPECT_EQ(HexEncode(encoded), golden_hex) << name;
  }
}

// ---------------------------------------------------------------- GOS checkpoints

// A truncated checkpoint restores nothing: every strict prefix of a checkpoint
// holding a master, a slave and a cache fails before any replica is built or any
// address is registered — except the prefix that ends where the optional
// telemetry trailer starts, which is a whole checkpoint without telemetry.
TEST(GosCheckpointTest, EveryStrictPrefixRestoresNothing) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr);
  dso::ImplementationRepository repository;
  repository.RegisterSemantics(std::make_unique<testutil::KvObject>());
  auto make_gos = [&](NodeId host) {
    return std::make_unique<gos::ObjectServer>(
        &transport, host, &repository, deployment.LeafDirectoryFor(host), nullptr);
  };
  std::unique_ptr<gos::ObjectServer> hosting = make_gos(world.hosts[0]);
  std::unique_ptr<gos::ObjectServer> elsewhere = make_gos(world.hosts[6]);
  using Created = Result<std::pair<gls::ObjectId, gls::ContactAddress>>;
  auto create_first = [&](gos::ObjectServer* gos, gls::ProtocolId protocol) {
    Created created = Unavailable("pending");
    gos->CreateFirstReplica(protocol, testutil::KvObject::kTypeId,
                            [&](Created r) { created = std::move(r); });
    simulator.Run();
    EXPECT_TRUE(created.ok()) << created.status();
    return created.ok() ? created->first : gls::ObjectId{};
  };
  auto join = [&](const gls::ObjectId& oid, gls::ReplicaRole role) {
    Created created = Unavailable("pending");
    hosting->CreateReplica(oid, testutil::KvObject::kTypeId, role,
                           [&](Created r) { created = std::move(r); });
    simulator.Run();
    EXPECT_TRUE(created.ok()) << created.status();
  };
  gls::ObjectId master = create_first(hosting.get(), dso::kProtoMasterSlave);
  join(create_first(elsewhere.get(), dso::kProtoMasterSlave), gls::ReplicaRole::kSlave);
  join(create_first(elsewhere.get(), dso::kProtoCacheInval), gls::ReplicaRole::kCache);
  // A write, so the telemetry trailer carries an entry.
  hosting->FindReplica(master)->Invoke(testutil::KvPut("k", "v"), [](Result<Bytes>) {});
  simulator.Run();
  ASSERT_EQ(hosting->num_replicas(), 3u);

  Bytes checkpoint = hosting->Checkpoint();
  ByteWriter trailer;
  hosting->metrics()->Serialize(&trailer);
  size_t trailer_start = checkpoint.size() - trailer.size();
  hosting.reset();
  auto inserts_sent = [&] {
    uint64_t inserts = 0;
    for (const auto& subnode : deployment.subnodes()) {
      inserts += subnode->stats().insert_requests;
    }
    return inserts;
  };

  for (size_t length = 0; length < checkpoint.size(); ++length) {
    std::unique_ptr<gos::ObjectServer> restored = make_gos(world.hosts[0]);
    uint64_t inserts_before = inserts_sent();
    Status status = Unavailable("pending");
    restored->Restore(ByteSpan(checkpoint.data(), length), [&](Status s) { status = s; });
    simulator.Run();
    if (length == trailer_start) {
      EXPECT_TRUE(status.ok()) << status;
      EXPECT_EQ(restored->num_replicas(), 3u);
      continue;
    }
    EXPECT_FALSE(status.ok()) << "prefix of " << length << " bytes restored";
    EXPECT_EQ(restored->num_replicas(), 0u) << "prefix of " << length << " bytes";
    EXPECT_EQ(inserts_sent(), inserts_before) << "prefix of " << length << " bytes";
  }
}

// ---------------------------------------------------------------- GLS vs reference

// Random insert/delete/lookup sequences checked against a trivial reference model.
class GlsModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GlsModelTest, AgreesWithReferenceModel) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  gls::GlsDeployment deployment(&transport, &world.topology, nullptr);

  Rng rng(GetParam());
  // Reference: oid -> set of registered contact addresses.
  std::map<gls::ObjectId, std::set<gls::ContactAddress>> reference;
  std::vector<gls::ObjectId> oids;
  for (int i = 0; i < 6; ++i) {
    oids.push_back(gls::ObjectId::Generate(&rng));
  }

  for (int step = 0; step < 120; ++step) {
    const gls::ObjectId& oid = oids[rng.UniformInt(oids.size())];
    NodeId host = world.hosts[rng.UniformInt(world.hosts.size())];
    gls::ContactAddress address{{host, sim::kPortGos}, 1, gls::ReplicaRole::kMaster};
    auto client = deployment.MakeClient(host);

    int action = static_cast<int>(rng.UniformInt(3));
    if (action == 0) {
      // Insert.
      Status status = Unavailable("pending");
      client->Insert(oid, address, [&](Status s) { status = s; });
      simulator.Run();
      ASSERT_TRUE(status.ok()) << status;
      reference[oid].insert(address);
    } else if (action == 1) {
      // Delete (may or may not exist).
      Status status = Unavailable("pending");
      client->Delete(oid, address, [&](Status s) { status = s; });
      simulator.Run();
      bool existed = reference.count(oid) > 0 && reference[oid].count(address) > 0;
      EXPECT_EQ(status.ok(), existed) << "step " << step;
      if (existed) {
        reference[oid].erase(address);
        if (reference[oid].empty()) {
          reference.erase(oid);
        }
      }
    } else {
      // Lookup from a random host: found iff the reference has any address, and the
      // returned addresses are a subset of the registered ones.
      NodeId from = world.hosts[rng.UniformInt(world.hosts.size())];
      auto lookup_client = deployment.MakeClient(from);
      Result<gls::LookupResult> result = Unavailable("pending");
      lookup_client->Lookup(
          oid, [&](Result<gls::LookupResult> r) { result = std::move(r); });
      simulator.Run();
      bool expected = reference.count(oid) > 0 && !reference.at(oid).empty();
      ASSERT_EQ(result.ok(), expected) << "step " << step;
      if (result.ok()) {
        for (const auto& got : result->addresses) {
          EXPECT_TRUE(reference.at(oid).count(got) > 0)
              << "phantom address at step " << step;
        }
      }
    }
  }

  // Final sweep: every registered address reachable from everywhere.
  for (const auto& [oid, addresses] : reference) {
    auto client = deployment.MakeClient(world.hosts[0]);
    bool found = false;
    client->Lookup(oid, [&](Result<gls::LookupResult> r) { found = r.ok(); });
    simulator.Run();
    EXPECT_TRUE(found) << oid.ToHex();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlsModelTest, ::testing::Values(10, 20, 30));

// ---------------------------------------------------------------- Replication model

// Random write sequences through random entry points: all replicas converge to the
// reference map once quiescent.
class ReplicationModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplicationModelTest, MasterSlaveConvergesToReference) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);

  dso::MasterSlaveMaster master(&transport, world.hosts[0],
                                std::make_unique<testutil::KvObject>());
  dso::MasterSlaveSlave slave1(&transport, world.hosts[2],
                               std::make_unique<testutil::KvObject>(),
                               master.contact_address()->endpoint);
  dso::MasterSlaveSlave slave2(&transport, world.hosts[6],
                               std::make_unique<testutil::KvObject>(),
                               master.contact_address()->endpoint);
  for (dso::ReplicationObject* replica :
       std::vector<dso::ReplicationObject*>{&slave1, &slave2}) {
    Status status = Unavailable("pending");
    replica->Start([&](Status s) { status = s; });
    simulator.Run();
    ASSERT_TRUE(status.ok());
  }

  Rng rng(GetParam());
  std::map<std::string, std::string> reference;
  std::vector<dso::ReplicationObject*> entry_points = {&master, &slave1, &slave2};
  for (int step = 0; step < 60; ++step) {
    std::string key = "k" + std::to_string(rng.UniformInt(8));
    std::string value = "v" + std::to_string(step);
    reference[key] = value;
    auto* entry = entry_points[rng.UniformInt(entry_points.size())];
    bool ok = false;
    entry->Invoke(testutil::KvPut(key, value), [&](Result<Bytes> r) { ok = r.ok(); });
    simulator.Run();
    ASSERT_TRUE(ok) << "step " << step;
  }

  // Quiescent: every replica agrees with the reference on every key.
  for (auto* replica : entry_points) {
    for (const auto& [key, value] : reference) {
      Result<Bytes> result = Unavailable("pending");
      replica->Invoke(testutil::KvGet(key),
                      [&](Result<Bytes> r) { result = std::move(r); });
      simulator.Run();
      ASSERT_TRUE(result.ok());
      ByteReader r(*result);
      EXPECT_EQ(r.ReadString().value(), value) << key;
    }
  }
  EXPECT_EQ(master.version(), 60u);
  EXPECT_EQ(slave1.version(), 60u);
  EXPECT_EQ(slave2.version(), 60u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplicationModelTest, ::testing::Values(5, 6, 7));

// ---------------------------------------------------------------- DNS cache freshness

TEST(DnsCacheFreshnessTest, NeverServesExpiredRecords) {
  sim::Simulator simulator;
  UniformWorld world = BuildUniformWorld({2, 2}, 2);
  sim::Network network(&simulator, &world.topology);
  sim::PlainTransport transport(&network);
  dns::TsigKeyTable keys{{"gdn-na", ToBytes("k")}, {"axfr", ToBytes("k2")}};

  dns::AuthoritativeServer server(&transport, world.hosts[0], keys);
  dns::Zone zone("z.nl", 60);
  ASSERT_TRUE(zone.Add({"a.z.nl", dns::RrType::kTxt, /*ttl=*/100, "version1"}).ok());
  server.AddZone(std::move(zone), true);

  dns::CachingResolver resolver(&transport, world.hosts[2]);
  resolver.AddUpstream("z.nl", server.endpoint());
  dns::DnsClient client(&transport, world.hosts[3], resolver.endpoint());

  auto resolve = [&]() {
    dns::QueryResponse out;
    client.Resolve("a.z.nl", dns::RrType::kTxt, [&](Result<dns::QueryResponse> r) {
      ASSERT_TRUE(r.ok());
      out = std::move(*r);
    });
    simulator.Run();
    return out;
  };

  // Warm the cache, then change the record upstream via TSIG update.
  EXPECT_EQ(resolve().answers[0].data, "version1");
  dns::UpdateRequest update;
  update.zone = "z.nl";
  update.deletions.push_back({"a.z.nl", dns::RrType::kTxt, false});
  update.additions.push_back({"a.z.nl", dns::RrType::kTxt, 100, "version2"});
  update.key_name = "gdn-na";
  update.sequence = 1;
  dns::TsigSign(&update, keys["gdn-na"]);
  sim::Channel rpc(&transport, world.hosts[3]);
  rpc.Call(server.endpoint(), "dns.update", wire::Encode(update),
           [](Result<sim::PayloadView>) {});
  simulator.Run();

  // Within the TTL a stale cached answer is legal (that is DNS semantics); once the
  // TTL has certainly elapsed the resolver MUST serve the new record — a cache entry
  // may never outlive its TTL. The explicit RunUntil sleeps advance the clock past
  // the 100 s TTL (a drained resolve() itself now only costs round-trip time, since
  // answered calls erase their deadline events).
  simulator.RunUntil(simulator.Now() + 50 * sim::kSecond);
  (void)resolve();  // mid-TTL: either version is acceptable, must not crash
  simulator.RunUntil(simulator.Now() + 101 * sim::kSecond);
  dns::QueryResponse after = resolve();
  ASSERT_FALSE(after.answers.empty());
  EXPECT_EQ(after.answers[0].data, "version2");
}

}  // namespace
}  // namespace globe
