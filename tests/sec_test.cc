// Tests for principals, the stream cipher and the TLS-style secure transport,
// including the attacker scenarios from paper §6: forged commands, tampering,
// replay, impersonation, and eavesdropping with and without encryption.

#include <gtest/gtest.h>

#include "src/sec/cipher.h"
#include "src/sec/principal.h"
#include "src/sec/secure_transport.h"
#include "src/sim/rpc.h"
#include "src/util/rng.h"
#include "src/sim/backend.h"
#include "tests/block_path_test.h"

namespace globe::sec {
namespace {

using sim::BuildUniformWorld;
using sim::Endpoint;
using sim::kSecond;
using sim::NodeId;
using sim::Channel;
using sim::RpcContext;
using sim::RpcServer;
using sim::UniformWorld;

// ---------------------------------------------------------------- KeyRegistry

TEST(KeyRegistryTest, RegisterAndVerify) {
  KeyRegistry registry;
  Credential mod = registry.Register("alice", Role::kModerator);
  EXPECT_NE(mod.id, kAnonymous);
  EXPECT_EQ(mod.key.size(), 32u);
  EXPECT_TRUE(registry.Verify(mod));
}

TEST(KeyRegistryTest, WrongKeyFailsVerification) {
  KeyRegistry registry;
  Credential mod = registry.Register("alice", Role::kModerator);
  Credential forged = mod;
  forged.key[0] ^= 1;
  EXPECT_FALSE(registry.Verify(forged));
}

TEST(KeyRegistryTest, UnknownPrincipalFailsVerification) {
  KeyRegistry registry;
  Credential fake{999, Bytes(32, 0x42)};
  EXPECT_FALSE(registry.Verify(fake));
}

TEST(KeyRegistryTest, RolesAreRecorded) {
  KeyRegistry registry;
  Credential admin = registry.Register("root", Role::kAdministrator);
  Credential user = registry.Register("bob", Role::kUser);
  EXPECT_EQ(registry.RoleOf(admin.id).value(), Role::kAdministrator);
  EXPECT_EQ(registry.RoleOf(user.id).value(), Role::kUser);
  EXPECT_FALSE(registry.RoleOf(12345).ok());
}

TEST(KeyRegistryTest, FindReturnsName) {
  KeyRegistry registry;
  Credential c = registry.Register("gos-amsterdam", Role::kGdnHost);
  auto p = registry.Find(c.id);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->name, "gos-amsterdam");
  EXPECT_EQ(RoleName(p->role), "gdn-host");
}

TEST(KeyRegistryTest, DistinctKeysPerPrincipal) {
  KeyRegistry registry;
  Credential a = registry.Register("a", Role::kUser);
  Credential b = registry.Register("b", Role::kUser);
  EXPECT_NE(a.id, b.id);
  EXPECT_NE(a.key, b.key);
}

// ---------------------------------------------------------------- Cipher

TEST(CipherTest, RoundTrip) {
  Bytes key = Bytes(32, 0x11);
  Bytes data = ToBytes("the GNU C compiler, Linux distributions and shareware");
  Bytes original = data;
  ApplyKeystream(key, 7, &data);
  EXPECT_NE(data, original);
  ApplyKeystream(key, 7, &data);
  EXPECT_EQ(data, original);
}

TEST(CipherTest, DifferentNoncesDifferentKeystreams) {
  Bytes key = Bytes(32, 0x11);
  Bytes a = Bytes(64, 0);
  Bytes b = Bytes(64, 0);
  ApplyKeystream(key, 1, &a);
  ApplyKeystream(key, 2, &b);
  EXPECT_NE(a, b);
}

TEST(CipherTest, EmptyDataIsFine) {
  Bytes key = Bytes(32, 0x11);
  Bytes empty;
  ApplyKeystream(key, 0, &empty);
  EXPECT_TRUE(empty.empty());
}

// The keystream bytes themselves, through both SHA-256 block functions: a
// 32-byte key (one block with nonce and counter) and a 70-byte key (the key
// fills a block before nonce and counter), 0x0123456789abcdef as the nonce.
using CipherGoldenTest = testutil::BlockPathTest;
GLOBE_INSTANTIATE_BLOCK_PATHS(CipherGoldenTest);

TEST_P(CipherGoldenTest, KeystreamBytesAreFixed) {
  const std::pair<size_t, const char*> kGolden[] = {
      {32,
       "d116c982e6582fc7532b4df98e126db5ded4f447fe110ab42233065ca694f39379bedfad56c78c8e"
       "789c033cf1cb51ec9a47de143cfec8490ec17c702e3a1504205050fea616db8ea38ef805c32792df"
       "13c34b8a6351393880313b8aadccce4f24cb45ad"},
      {70,
       "934796ff483c4ea0292fc81bde4d85ec97325957b2a2fd76677e2e200ec6e838cb2f910b772c699c"
       "c1f90251412818603fcb3fa0dcf881fb300f246d0071d587d5600d86389c05da2c3bb54225aa300c"
       "19a5673e624a45bef49c0ff6d636d8bcfc6bf4b8"},
  };
  for (const auto& [key_size, hex] : kGolden) {
    Bytes key(key_size);
    for (size_t i = 0; i < key_size; ++i) {
      key[i] = static_cast<uint8_t>(i * 7 + 1);
    }
    Bytes data(100, 0);  // XOR onto zeros leaves the keystream itself
    ApplyKeystream(key, 0x0123456789abcdefULL, &data);
    EXPECT_EQ(HexEncode(data), hex) << "key size " << key_size;
  }
}

TEST(CipherTest, LongDataCrossesBlocks) {
  Rng rng(3);
  Bytes key = rng.RandomBytes(32);
  Bytes data = rng.RandomBytes(1000);
  Bytes original = data;
  ApplyKeystream(key, 9, &data);
  ApplyKeystream(key, 9, &data);
  EXPECT_EQ(data, original);
}

// ---------------------------------------------------------------- SecureTransport

class SecureTransportTest : public ::testing::Test {
 protected:
  SecureTransportTest()
      : world_(BuildUniformWorld({2, 2}, 2)),
        network_(&simulator_, &world_.topology),
        plain_(&network_),
        transport_(&plain_, &registry_) {
    host_a_ = world_.hosts[0];
    host_b_ = world_.hosts[5];  // different continent
    user_machine_ = world_.hosts[2];

    cred_a_ = registry_.Register("gos-a", Role::kGdnHost);
    cred_b_ = registry_.Register("httpd-b", Role::kGdnHost);
    transport_.SetNodeCredential(host_a_, cred_a_);
    transport_.SetNodeCredential(host_b_, cred_b_);

    // Figure 4 policy: host<->host mutual, user->host server-auth.
    transport_.SetChannelPolicy([this](NodeId src, NodeId dst) {
      bool src_host = (src == host_a_ || src == host_b_);
      bool dst_host = (dst == host_a_ || dst == host_b_);
      ChannelConfig config;
      if (src_host && dst_host) {
        config.auth = AuthMode::kMutualAuth;
      } else if (src_host || dst_host) {
        config.auth = AuthMode::kServerAuth;
      }
      config.encrypt = encrypt_;
      return config;
    });
  }

  // Runs an echo RPC from `from` to a server on `to`; returns the context the server
  // saw, or nullopt if the call failed.
  struct CallOutcome {
    bool ok = false;
    PrincipalId peer = kAnonymous;
    bool integrity = false;
    Bytes reply;
  };
  CallOutcome RunEcho(NodeId from, NodeId to) {
    RpcServer server(&transport_, to, 700);
    CallOutcome outcome;
    server.RegisterMethod(
        "echo", [&](const RpcContext& ctx, ByteSpan req) -> Result<Bytes> {
      outcome.peer = ctx.peer_principal;
      outcome.integrity = ctx.integrity_protected;
      return Bytes(req.begin(), req.end());
    });
    Channel client(&transport_, from);
    client.Call(server.endpoint(), "echo", ToBytes("payload"), [&](Result<sim::PayloadView> result) {
      outcome.ok = result.ok();
      if (result.ok()) {
        outcome.reply = result->Copy();
      }
    });
    simulator_.Run();
    return outcome;
  }

  sim::Simulator simulator_;
  UniformWorld world_;
  sim::Network network_;
  sim::PlainTransport plain_;
  KeyRegistry registry_;
  SecureTransport transport_;
  NodeId host_a_, host_b_, user_machine_;
  Credential cred_a_, cred_b_;
  bool encrypt_ = false;
};

TEST_F(SecureTransportTest, MutualAuthDeliversPeerPrincipal) {
  auto outcome = RunEcho(host_a_, host_b_);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.peer, cred_a_.id);  // server saw the authenticated client
  EXPECT_TRUE(outcome.integrity);
  EXPECT_EQ(ToString(outcome.reply), "payload");
  EXPECT_EQ(transport_.stats().handshakes, 1u);
}

TEST_F(SecureTransportTest, ServerAuthClientIsAnonymous) {
  auto outcome = RunEcho(user_machine_, host_b_);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.peer, kAnonymous);
  EXPECT_TRUE(outcome.integrity);
}

TEST_F(SecureTransportTest, PlainChannelHasNoIntegrity) {
  // user machine to user machine: policy yields plain.
  auto outcome = RunEcho(user_machine_, world_.hosts[3]);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.peer, kAnonymous);
  EXPECT_FALSE(outcome.integrity);
  EXPECT_EQ(transport_.stats().handshakes, 0u);
}

TEST_F(SecureTransportTest, HandshakeOnlyOnFirstUse) {
  RunEcho(host_a_, host_b_);
  EXPECT_EQ(transport_.stats().handshakes, 1u);
  RunEcho(host_a_, host_b_);
  EXPECT_EQ(transport_.stats().handshakes, 1u);  // session reused
  transport_.ResetChannel(host_a_, host_b_);
  RunEcho(host_a_, host_b_);
  EXPECT_EQ(transport_.stats().handshakes, 2u);
}

TEST_F(SecureTransportTest, ImpersonatorWithoutKeyCannotEstablishMutualChannel) {
  // The attacker controls a user machine and claims to be gos-a, but holds a junk key.
  Credential forged{cred_a_.id, Bytes(32, 0xee)};
  transport_.SetNodeCredential(user_machine_, forged);
  transport_.SetChannelPolicy([](NodeId, NodeId) {
    return ChannelConfig{AuthMode::kMutualAuth, false};
  });

  auto outcome = RunEcho(user_machine_, host_b_);
  EXPECT_FALSE(outcome.ok);  // call times out: handshake refused
  EXPECT_GE(transport_.stats().auth_failures, 1u);
}

TEST_F(SecureTransportTest, TamperedFrameIsDroppedByMac) {
  // Rebuild the network with in-flight tampering, then check that no corrupted
  // payload ever reaches the application.
  sim::NetworkOptions options;
  options.tamper_probability = 1.0;
  sim::Network lossy(&simulator_, &world_.topology, options);
  sim::PlainTransport lossy_plain(&lossy);
  SecureTransport secure(&lossy_plain, &registry_);
  secure.SetNodeCredential(host_a_, cred_a_);
  secure.SetNodeCredential(host_b_, cred_b_);
  secure.SetChannelPolicy([](NodeId, NodeId) {
    return ChannelConfig{AuthMode::kMutualAuth, false};
  });

  RpcServer server(&secure, host_b_, 700);
  int delivered = 0;
  server.RegisterMethod("echo", [&](const RpcContext&, ByteSpan req) -> Result<Bytes> {
    ++delivered;
    return Bytes(req.begin(), req.end());
  });
  Channel client(&secure, host_a_);
  bool ok = true;
  sim::CallOptions call_options;
  call_options.deadline = 5 * kSecond;
  client.Call(server.endpoint(), "echo", ToBytes("x"),
              [&](Result<sim::PayloadView> r) { ok = r.ok(); }, call_options);
  simulator_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_FALSE(ok);
  EXPECT_GE(secure.stats().mac_failures, 1u);
}

TEST_F(SecureTransportTest, RawInjectionWithoutSessionIsRejected) {
  RpcServer server(&transport_, host_b_, 700);
  int delivered = 0;
  server.RegisterMethod("cmd", [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
    ++delivered;
    return Bytes{};
  });
  // Attacker bypasses the transport and injects raw bytes claiming a bogus session.
  ByteWriter w;
  w.WriteU8(1);   // version
  w.WriteU8(1);   // secure frame
  w.WriteU64(777);  // made-up session id
  w.WriteU64(0);
  w.WriteU8(0);
  w.WriteLengthPrefixed(ToBytes("evil"));
  w.WriteLengthPrefixed(Bytes(32, 0));
  network_.Send({user_machine_, 9999}, {host_b_, 700}, w.Take());
  simulator_.Run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(transport_.stats().unknown_session, 1u);
}

TEST_F(SecureTransportTest, ReplayedFrameIsRejected) {
  // Capture legitimate frames off the wire, then re-inject them.
  std::vector<std::pair<std::pair<Endpoint, Endpoint>, Bytes>> captured;
  network_.SetEavesdropper(
      [&](const Endpoint& src, const Endpoint& dst, ByteSpan payload) {
    captured.push_back({{src, dst}, Bytes(payload.begin(), payload.end())});
  });

  RpcServer server(&transport_, host_b_, 700);
  int delivered = 0;
  server.RegisterMethod("cmd", [&](const RpcContext&, ByteSpan) -> Result<Bytes> {
    ++delivered;
    return Bytes{};
  });
  Channel client(&transport_, host_a_);
  client.Call(server.endpoint(), "cmd", ToBytes("once"), [](Result<sim::PayloadView>) {});
  simulator_.Run();
  ASSERT_EQ(delivered, 1);

  // Replay every captured frame verbatim.
  network_.SetEavesdropper(nullptr);
  for (const auto& [eps, payload] : captured) {
    network_.Send(eps.first, eps.second, payload);
  }
  simulator_.Run();
  EXPECT_EQ(delivered, 1);  // no duplicate execution
  EXPECT_GE(transport_.stats().replay_rejects, 1u);
}

// Frames on one channel arrive in the order they were sent, whatever their sizes:
// a larger frame's fractional transmit time plus its MAC cost must not let the
// smaller frame sent right behind it arrive first, or the receiver rejects the
// earlier sequence number as a replay.
TEST_F(SecureTransportTest, BackToBackFramesArriveInSendOrder) {
  std::vector<uint32_t> received;
  transport_.RegisterPort(host_b_, 700, [&](const sim::TransportDelivery& delivery) {
    ByteReader r(delivery.payload.span());
    received.push_back(r.ReadU32().value());
  });
  uint32_t sent = 0;
  auto send = [&](size_t size) {
    ByteWriter w;
    w.WriteU32(sent++);
    Bytes payload = w.Take();
    payload.resize(size, 0x5a);
    transport_.Send({host_a_, 9}, {host_b_, 700}, payload);
  };
  send(4);  // establishes the session
  simulator_.Run();
  for (size_t first = 5; first <= 100; ++first) {
    for (size_t second = 4; second < first; ++second) {
      send(first);
      send(second);
      simulator_.Run();
    }
  }
  ASSERT_EQ(received.size(), sent);
  for (uint32_t i = 0; i < sent; ++i) {
    ASSERT_EQ(received[i], i);
  }
  EXPECT_EQ(transport_.stats().replay_rejects, 0u);
}

TEST_F(SecureTransportTest, EavesdropperSeesPlaintextWithoutEncryption) {
  encrypt_ = false;
  std::string wire;
  network_.SetEavesdropper([&](const Endpoint&, const Endpoint&, ByteSpan payload) {
    wire += ToString(payload);
  });
  RunEcho(host_a_, host_b_);
  EXPECT_NE(wire.find("payload"), std::string::npos);
}

TEST_F(SecureTransportTest, EncryptionHidesPlaintextFromEavesdropper) {
  encrypt_ = true;
  std::string wire;
  network_.SetEavesdropper([&](const Endpoint&, const Endpoint&, ByteSpan payload) {
    wire += ToString(payload);
  });
  auto outcome = RunEcho(host_a_, host_b_);
  ASSERT_TRUE(outcome.ok);
  EXPECT_EQ(ToString(outcome.reply), "payload");  // decrypted correctly end-to-end
  EXPECT_EQ(wire.find("payload"), std::string::npos);
}

TEST_F(SecureTransportTest, EncryptionCostsMoreSimulatedCpu) {
  encrypt_ = false;
  RunEcho(host_a_, host_b_);
  double integrity_only = transport_.stats().crypto_us;

  transport_.mutable_stats()->Clear();
  transport_.ResetChannel(host_a_, host_b_);
  encrypt_ = true;
  RunEcho(host_a_, host_b_);
  double with_encryption = transport_.stats().crypto_us;
  EXPECT_GT(with_encryption, integrity_only);
}

TEST_F(SecureTransportTest, HandshakeBytesHitWideAreaTrafficAccounting) {
  uint64_t before = network_.stats().TotalBytes();
  RunEcho(host_a_, host_b_);
  // host_a_ and host_b_ are on different continents: handshake flight + frames all
  // cross the top level (ascent level 2 in this two-level world).
  EXPECT_GT(network_.stats().BytesAtOrAbove(2), 0u);
  EXPECT_GT(network_.stats().TotalBytes(), before + 2048);
}

TEST_F(SecureTransportTest, MalformedSecureFrameCounted) {
  RpcServer server(&transport_, host_b_, 700);
  network_.Send({user_machine_, 9}, {host_b_, 700}, Bytes{0x01, 0x01, 0x02});
  simulator_.Run();
  EXPECT_EQ(transport_.stats().malformed_frames, 1u);
}

}  // namespace
}  // namespace globe::sec
