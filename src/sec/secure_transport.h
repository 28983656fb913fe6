// TLS-style secure transport decorating any inner transport.
//
// Paper §6.3: "we replace all communication between GDN parties by integrity-protected
// and authenticated communication ... all TCP connections between GDN parties are
// replaced by connections secured via the TLS protocol", with two-way authentication
// between GDN hosts and server-side authentication towards users' machines (Figure 4).
//
// This class implements sim::Transport by wrapping an inner Transport (the
// simulated network's PlainTransport, or a socket backend) so the RPC layer — and
// thus every service — is oblivious to it: the same clean communication/functional
// separation the paper relies on to make the TLS retrofit cheap.
//
// Model of one channel (a node pair), mirroring a TLS connection:
//   - Handshake on first use: a synthetic 2 KB flight is charged to the network (so
//     wide-area byte counters see it) and the first data frame is delayed by
//     handshake_rtts round trips plus handshake CPU. Credential verification against
//     the KeyRegistry happens here, like certificate verification: in kMutualAuth both
//     nodes must hold registry-matching credentials, in kServerAuth only the responder.
//   - Data frames: sequence number per direction (replay protection), optional
//     encryption under the session key (SHA-256 CTR keystream), and an HMAC-SHA-256
//     over (session id, seq, endpoints, ciphertext). Tampering — whether injected by
//     the network's fault injection or by test "attackers" — fails MAC verification
//     and the frame is dropped and counted.
//   - Delivered frames carry the authenticated peer principal so services can apply
//     role checks ("only a moderator may add packages", §6.1).
//   - Inbound verification is batched: frames arriving in one event-loop wake
//     queue as pinned views and are verified together in a single deferred
//     flush, against the session's precomputed HMAC midstates. A tampered frame
//     is rejected individually; the rest of its batch still delivers.
//
// Per-byte MAC and cipher costs are charged as extra delivery delay, which is how the
// benchmarks measure the paper's "paying for confidentiality we do not need" concern.

#ifndef SRC_SEC_SECURE_TRANSPORT_H_
#define SRC_SEC_SECURE_TRANSPORT_H_

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "src/sec/principal.h"
#include "src/sim/transport.h"
#include "src/util/hmac.h"
#include "src/util/rng.h"
#include "src/util/serial.h"

namespace globe::sec {

enum class AuthMode : uint8_t {
  kPlain = 0,       // no handshake, no MAC — the June 2000 first-version GDN
  kServerAuth = 1,  // responder authenticated; initiator anonymous (user -> GDN host)
  kMutualAuth = 2,  // both authenticated (GDN host <-> GDN host)
};

struct ChannelConfig {
  AuthMode auth = AuthMode::kPlain;
  bool encrypt = false;  // confidentiality on top of integrity
};

// Decides how a (src, dst) node pair communicates. Installed once per transport;
// the GdnWorld policy gives mutual auth between GDN hosts and server auth towards
// user machines, as in Figure 4.
using ChannelPolicy = std::function<ChannelConfig(sim::NodeId src, sim::NodeId dst)>;

// Cost model for the simulated crypto, loosely calibrated to year-2000 hardware.
struct CryptoProfile {
  double mac_us_per_byte = 0.01;      // ~100 MB/s HMAC
  double cipher_us_per_byte = 0.04;   // ~25 MB/s symmetric cipher
  double handshake_cpu_us = 3000;     // asymmetric crypto at both ends
  uint64_t handshake_bytes = 2048;    // hello + certificate + key exchange flights
  int handshake_rtts = 2;             // TLS 1.0: two round trips before app data
  uint64_t mac_trailer_bytes = 32;    // HMAC-SHA-256 length on the wire
};

struct SecureStats {
  uint64_t handshakes = 0;
  uint64_t frames_sent = 0;
  uint64_t plain_frames_sent = 0;
  uint64_t mac_failures = 0;
  uint64_t replay_rejects = 0;
  uint64_t auth_failures = 0;     // handshake credential verification failures
  uint64_t unknown_session = 0;   // frames naming a session we never established
  uint64_t malformed_frames = 0;
  uint64_t verify_batches = 0;    // verify flushes executed
  uint64_t batched_frames = 0;    // frames verified across all flushes
  uint64_t max_batch_frames = 0;  // largest single flush
  double crypto_us = 0;           // total simulated crypto CPU time

  void Clear() { *this = SecureStats(); }
};

class SecureTransport : public sim::Transport {
 public:
  SecureTransport(sim::Transport* inner, const KeyRegistry* registry,
                  CryptoProfile profile = {});
  ~SecureTransport() override;

  // Installs the host credential a node uses when it must authenticate. Nodes without
  // credentials can only initiate kServerAuth or kPlain channels.
  void SetNodeCredential(sim::NodeId node, Credential credential);

  void SetChannelPolicy(ChannelPolicy policy) { policy_ = std::move(policy); }

  // sim::Transport interface.
  void Send(const sim::Endpoint& src, const sim::Endpoint& dst, ByteSpan payload) override;
  void RegisterPort(sim::NodeId node, uint16_t port,
                    sim::TransportHandler handler) override;
  void UnregisterPort(sim::NodeId node, uint16_t port) override;
  sim::Clock* clock() override { return inner_->clock(); }
  double EstimateDeliveryDelayUs(sim::NodeId src, sim::NodeId dst,
                                 size_t bytes) const override {
    return inner_->EstimateDeliveryDelayUs(src, dst, bytes);
  }

  const SecureStats& stats() const { return stats_; }
  SecureStats* mutable_stats() { return &stats_; }

  // Drops the session state for a node pair, forcing a fresh handshake (used to test
  // reconnection after failures).
  void ResetChannel(sim::NodeId a, sim::NodeId b);

 private:
  struct Session {
    uint64_t id = 0;
    Bytes key;
    // The HMAC key schedule (padded key block midstates), computed once per
    // session instead of once per frame.
    HmacKey mac_key;
    ChannelConfig config;
    // Authenticated principal per side, kAnonymous if that side is not authenticated.
    std::map<sim::NodeId, PrincipalId> principals;
    std::map<sim::NodeId, uint64_t> next_seq;      // per sending direction
    std::map<sim::NodeId, uint64_t> last_accepted; // per receiving direction
    // TLS runs over TCP: frames on one channel may not overtake each other. Per
    // sending direction this holds the earliest time the next frame may arrive,
    // initialized to the end of the handshake and then to the previous frame's
    // arrival...
    std::map<sim::NodeId, sim::SimTime> delivery_floor;
    // ...and the time the last held-back frame enters the inner transport: a
    // later frame enters no earlier, so a tie in arrival time is delivered in
    // send order.
    std::map<sim::NodeId, sim::SimTime> held_until;
    // Held-back frames that have not entered the inner transport yet. On a
    // real event loop a timer already due can still be waiting while I/O runs,
    // so the time alone cannot say whether the way in is clear.
    std::map<sim::NodeId, uint64_t> held;
  };

  using NodePair = std::pair<sim::NodeId, sim::NodeId>;
  static NodePair MakePair(sim::NodeId a, sim::NodeId b) {
    return a < b ? NodePair{a, b} : NodePair{b, a};
  }

  // One parsed secure frame awaiting MAC verification. The ciphertext and MAC
  // are pinned views into the inner transport's receive buffer — queuing a
  // frame for a batched flush costs refcounts, not copies.
  struct PendingSecureFrame {
    sim::Endpoint src;
    sim::Endpoint dst;
    uint64_t session_id = 0;
    uint64_t seq = 0;
    uint8_t flags = 0;
    sim::PayloadView ciphertext;
    sim::PayloadView mac;
  };

  // Returns the session for the pair, establishing it (and charging handshake costs
  // via the channel's delivery floors) if needed. nullptr if credential verification
  // failed.
  Session* GetOrEstablish(sim::NodeId src, sim::NodeId dst);

  void OnRawDelivery(const sim::TransportDelivery& delivery);
  // Verifies, replay-checks, decrypts and delivers one secure frame.
  void VerifyAndDeliver(PendingSecureFrame& frame);
  // Batched mode: drains every frame queued during the wake, in arrival order.
  void FlushPending();

  sim::Transport* inner_;
  const KeyRegistry* registry_;
  CryptoProfile profile_;
  ChannelPolicy policy_;
  Rng rng_;
  uint64_t next_session_id_ = 1;
  std::map<sim::NodeId, Credential> credentials_;
  std::map<NodePair, Session> sessions_;
  std::map<uint64_t, NodePair> session_by_id_;
  // Values are shared_ptr so OnRawDelivery() can pin the handler it is
  // invoking without copying the closure: a handler may close its own port
  // mid-call.
  std::map<std::pair<sim::NodeId, uint16_t>, std::shared_ptr<sim::TransportHandler>>
      handlers_;
  SecureStats stats_;
  // Frames queued for the next batched flush (one 0-delay event per wake).
  std::vector<PendingSecureFrame> pending_;
  // Scratch buffers reused across frames: MAC header bytes and outbound frames.
  ByteWriter mac_scratch_;
  ByteWriter frame_scratch_;
  // Guards frames held back on the clock (crypto cost, delivery floors) against
  // a transport destroyed before they go out.
  std::shared_ptr<bool> alive_;
};

}  // namespace globe::sec

#endif  // SRC_SEC_SECURE_TRANSPORT_H_
