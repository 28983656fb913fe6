#include "src/sec/secure_transport.h"

#include <algorithm>

#include "src/sec/cipher.h"
#include "src/util/hmac.h"
#include "src/util/log.h"
#include "src/util/serial.h"

namespace globe::sec {

namespace {
constexpr uint8_t kVersion = 1;
constexpr uint8_t kFramePlain = 0;
constexpr uint8_t kFrameSecure = 1;
constexpr uint8_t kFlagEncrypted = 0x01;
// Port 1 receives the synthetic handshake flights; nothing listens there, so the
// bytes are charged to the network's traffic counters and then discarded.
constexpr uint16_t kHandshakeSinkPort = 1;

// The MAC input header: everything but the ciphertext bytes themselves. The
// verifier feeds this scratch header and then the ciphertext span into the
// session's HMAC midstate, so the MAC input is never concatenated.
void WriteMacHeader(ByteWriter* w, uint64_t session_id, uint64_t seq,
                    const sim::Endpoint& src, const sim::Endpoint& dst, uint8_t flags,
                    uint64_t ciphertext_len) {
  w->Reset();
  w->WriteU64(session_id);
  w->WriteU64(seq);
  w->WriteU32(src.node);
  w->WriteU16(src.port);
  w->WriteU32(dst.node);
  w->WriteU16(dst.port);
  w->WriteU8(flags);
  w->WriteVarint(ciphertext_len);
}

}  // namespace

SecureTransport::SecureTransport(sim::Transport* inner, const KeyRegistry* registry,
                                 CryptoProfile profile)
    : inner_(inner),
      registry_(registry),
      profile_(profile),
      rng_(0x5ec43a11),
      alive_(std::make_shared<bool>(true)) {}

SecureTransport::~SecureTransport() { *alive_ = false; }

void SecureTransport::SetNodeCredential(sim::NodeId node, Credential credential) {
  credentials_[node] = std::move(credential);
}

void SecureTransport::RegisterPort(sim::NodeId node, uint16_t port,
                                   sim::TransportHandler handler) {
  handlers_[{node, port}] = std::make_shared<sim::TransportHandler>(std::move(handler));
  inner_->RegisterPort(node, port,
                       [this](const sim::TransportDelivery& d) { OnRawDelivery(d); });
}

void SecureTransport::UnregisterPort(sim::NodeId node, uint16_t port) {
  handlers_.erase({node, port});
  inner_->UnregisterPort(node, port);
}

void SecureTransport::ResetChannel(sim::NodeId a, sim::NodeId b) {
  auto it = sessions_.find(MakePair(a, b));
  if (it != sessions_.end()) {
    session_by_id_.erase(it->second.id);
    sessions_.erase(it);
  }
}

SecureTransport::Session* SecureTransport::GetOrEstablish(sim::NodeId src,
                                                           sim::NodeId dst) {
  NodePair pair = MakePair(src, dst);
  auto it = sessions_.find(pair);
  if (it != sessions_.end()) {
    return &it->second;
  }

  ChannelConfig config = policy_ ? policy_(src, dst) : ChannelConfig{};
  Session session;
  session.id = next_session_id_++;
  session.key = rng_.RandomBytes(32);
  session.mac_key = HmacKey(session.key);
  session.config = config;

  // Certificate verification, simulated: the authenticated side(s) must hold the key
  // the registry lists for their claimed principal.
  auto authenticate = [&](sim::NodeId node) -> bool {
    auto cred = credentials_.find(node);
    if (cred == credentials_.end() || !registry_->Verify(cred->second)) {
      return false;
    }
    session.principals[node] = cred->second.id;
    return true;
  };

  // The responder authenticates in both secured modes; the initiator only in mutual.
  if (config.auth != AuthMode::kPlain) {
    if (!authenticate(dst)) {
      ++stats_.auth_failures;
      GLOG_WARN << "handshake failed: node " << dst << " has no valid credential";
      return nullptr;
    }
    if (config.auth == AuthMode::kMutualAuth && !authenticate(src)) {
      ++stats_.auth_failures;
      GLOG_WARN << "handshake failed: initiator node " << src
                << " has no valid credential";
      return nullptr;
    }

    // Charge the handshake: one synthetic 2 KB flight on the wire (so the traffic
    // accounting sees it) plus the round trips and CPU as a delivery floor — no data
    // frame in either direction may arrive before the handshake completes.
    inner_->Send({src, kHandshakeSinkPort}, {dst, kHandshakeSinkPort},
                 Bytes(profile_.handshake_bytes));
    double one_way = inner_->EstimateDeliveryDelayUs(src, dst, 0);
    sim::SimTime ready_at =
        inner_->clock()->Now() +
        static_cast<sim::SimTime>(profile_.handshake_rtts * 2 * one_way +
                                  profile_.handshake_cpu_us);
    session.delivery_floor[src] = ready_at;
    session.delivery_floor[dst] = ready_at;
    ++stats_.handshakes;
    stats_.crypto_us += profile_.handshake_cpu_us;
  }

  auto [inserted, _] = sessions_.emplace(pair, std::move(session));
  session_by_id_[inserted->second.id] = pair;
  return &inserted->second;
}

void SecureTransport::Send(const sim::Endpoint& src, const sim::Endpoint& dst,
                           ByteSpan payload) {
  ChannelConfig config = policy_ ? policy_(src.node, dst.node) : ChannelConfig{};

  if (config.auth == AuthMode::kPlain) {
    frame_scratch_.Reset();
    frame_scratch_.WriteU8(kVersion);
    frame_scratch_.WriteU8(kFramePlain);
    frame_scratch_.WriteLengthPrefixed(payload);
    ++stats_.plain_frames_sent;
    inner_->Send(src, dst, frame_scratch_.span());
    return;
  }

  Session* session = GetOrEstablish(src.node, dst.node);
  if (session == nullptr) {
    return;  // handshake failed: connection refused, message lost
  }

  uint64_t seq = session->next_seq[src.node]++;
  uint8_t flags = 0;
  ByteSpan ciphertext = payload;
  Bytes encrypted;  // only materialised when the channel encrypts
  double crypto_us = static_cast<double>(payload.size()) * profile_.mac_us_per_byte;
  if (session->config.encrypt) {
    flags |= kFlagEncrypted;
    // Distinct nonces per direction prevent keystream reuse.
    uint64_t nonce = seq * 2 + (src.node < dst.node ? 0 : 1);
    encrypted = ToBytes(payload);
    ApplyKeystream(session->key, nonce, &encrypted);
    ciphertext = encrypted;
    crypto_us += static_cast<double>(encrypted.size()) * profile_.cipher_us_per_byte;
  }
  // Multi-part MAC from the session's precomputed midstates: header scratch +
  // ciphertext span, no concatenation buffer, no key schedule recomputation.
  WriteMacHeader(&mac_scratch_, session->id, seq, src, dst, flags, ciphertext.size());
  Sha256 inner_hash = session->mac_key.Start();
  inner_hash.Update(mac_scratch_.span());
  inner_hash.Update(ciphertext);
  auto mac = session->mac_key.Finish(std::move(inner_hash));

  frame_scratch_.Reset();
  frame_scratch_.WriteU8(kVersion);
  frame_scratch_.WriteU8(kFrameSecure);
  frame_scratch_.WriteU64(session->id);
  frame_scratch_.WriteU64(seq);
  frame_scratch_.WriteU8(flags);
  frame_scratch_.WriteLengthPrefixed(ciphertext);
  frame_scratch_.WriteLengthPrefixed(mac);

  // Enforce per-direction FIFO delivery (TCP semantics under TLS). Crypto CPU and
  // floor padding are charged by holding the frame back on the clock until
  // `send_at`, when it enters the inner transport, which delivers it base_delay
  // later. Both are whole microseconds, as the clock and the network apply them.
  // The frame arrives no earlier than the frame sent ahead of it, and enters the
  // inner transport no earlier either: deliveries due at the same time run in
  // the order they were handed to the inner transport.
  auto base_delay = static_cast<sim::SimTime>(
      inner_->EstimateDeliveryDelayUs(src.node, dst.node, frame_scratch_.size()));
  sim::SimTime now = inner_->clock()->Now();
  sim::SimTime& floor = session->delivery_floor[src.node];
  sim::SimTime& held_until = session->held_until[src.node];
  uint64_t& held = session->held[src.node];
  sim::SimTime send_at = std::max({now + static_cast<sim::SimTime>(crypto_us),
                                   floor > base_delay ? floor - base_delay : 0,
                                   held_until});
  floor = send_at + base_delay;

  ++stats_.frames_sent;
  stats_.crypto_us += crypto_us;
  // A frame held until now may not have entered the inner transport yet: only
  // once every held frame has gone in, and was due before now, may this one go
  // straight in.
  if (send_at == now && held_until < now && held == 0) {
    inner_->Send(src, dst, frame_scratch_.span());
    return;
  }
  held_until = send_at;
  ++held;
  // Held-back frames outlive the scratch buffer: the closure owns a copy.
  inner_->clock()->ScheduleAfter(
      send_at - now,
      [this, alive = std::weak_ptr<bool>(alive_), session_id = session->id, src,
       dst, frame = Bytes(frame_scratch_.data())]() {
        auto a = alive.lock();
        if (!a || !*a) {
          return;
        }
        // ResetChannel may have dropped the session meanwhile.
        if (auto pair = session_by_id_.find(session_id);
            pair != session_by_id_.end()) {
          --sessions_.at(pair->second).held[src.node];
        }
        inner_->Send(src, dst, frame);
      });
}

void SecureTransport::OnRawDelivery(const sim::TransportDelivery& delivery) {
  auto handler_it = handlers_.find({delivery.dst.node, delivery.dst.port});
  if (handler_it == handlers_.end()) {
    return;
  }

  if (delivery.transport_error) {
    // Connection-level failure from the backend: not a frame at all. Forward it
    // untouched so the RPC layer can fail calls towards the lost peer fast.
    std::shared_ptr<sim::TransportHandler> handler = handler_it->second;
    (*handler)(delivery);
    return;
  }

  ByteReader r(delivery.payload);
  auto version = r.ReadU8();
  auto frame_type = r.ReadU8();
  if (!version.ok() || !frame_type.ok() || *version != kVersion) {
    ++stats_.malformed_frames;
    return;
  }

  if (*frame_type == kFramePlain) {
    auto payload = r.ReadLengthPrefixedView();
    if (!payload.ok()) {
      ++stats_.malformed_frames;
      return;
    }
    // Pin the handler: it may unregister its own port mid-call, which would
    // destroy the std::function we are executing. The payload is a sub-view
    // sharing the inner delivery's backing buffer — no copy.
    std::shared_ptr<sim::TransportHandler> handler = handler_it->second;
    (*handler)(sim::TransportDelivery{delivery.src, delivery.dst,
                                      delivery.payload.Share(*payload), kAnonymous,
                                      /*integrity_protected=*/false});
    return;
  }

  if (*frame_type != kFrameSecure) {
    ++stats_.malformed_frames;
    return;
  }
  auto session_id = r.ReadU64();
  auto seq = r.ReadU64();
  auto flags = r.ReadU8();
  auto ciphertext = r.ReadLengthPrefixedView();
  auto mac = r.ReadLengthPrefixedView();
  if (!session_id.ok() || !seq.ok() || !flags.ok() || !ciphertext.ok() || !mac.ok()) {
    ++stats_.malformed_frames;
    return;
  }

  PendingSecureFrame frame{delivery.src,
                           delivery.dst,
                           *session_id,
                           *seq,
                           *flags,
                           delivery.payload.Share(*ciphertext),
                           delivery.payload.Share(*mac)};

  // Pin the frame's views and verify at the end of the wake, so every frame
  // the backend parsed out of this read shares one flush. The 0-delay event
  // preserves delivery time on both clocks (virtual and real) and fires
  // deterministically, so pinned-seed chaos replays are unaffected.
  pending_.push_back(std::move(frame));
  if (pending_.size() == 1) {
    inner_->clock()->ScheduleAfter(0, [this, alive = std::weak_ptr<bool>(alive_)]() {
      auto a = alive.lock();
      if (!a || !*a) {
        return;
      }
      FlushPending();
    });
  }
}

void SecureTransport::FlushPending() {
  std::vector<PendingSecureFrame> batch;
  batch.swap(pending_);
  if (batch.empty()) {
    return;
  }
  ++stats_.verify_batches;
  stats_.batched_frames += batch.size();
  stats_.max_batch_frames = std::max(stats_.max_batch_frames,
                                     static_cast<uint64_t>(batch.size()));
  for (PendingSecureFrame& frame : batch) {
    VerifyAndDeliver(frame);
  }
}

void SecureTransport::VerifyAndDeliver(PendingSecureFrame& frame) {
  // Re-resolved at verification time: the port may have closed between arrival
  // and a batched flush, which drops the frame exactly like a closed UDP port.
  auto handler_it = handlers_.find({frame.dst.node, frame.dst.port});
  if (handler_it == handlers_.end()) {
    return;
  }
  auto pair_it = session_by_id_.find(frame.session_id);
  if (pair_it == session_by_id_.end()) {
    ++stats_.unknown_session;
    return;
  }
  Session& session = sessions_.at(pair_it->second);

  WriteMacHeader(&mac_scratch_, frame.session_id, frame.seq, frame.src, frame.dst,
                 frame.flags, frame.ciphertext.size());
  Sha256 inner_hash = session.mac_key.Start();
  inner_hash.Update(mac_scratch_.span());
  inner_hash.Update(frame.ciphertext);
  bool mac_ok = session.mac_key.Verify(std::move(inner_hash), frame.mac);
  if (!mac_ok) {
    ++stats_.mac_failures;
    GLOG_WARN << "MAC verification failed on frame " << sim::ToString(frame.src)
              << " -> " << sim::ToString(frame.dst) << " (tampered or forged)";
    return;
  }

  // Replay protection: per direction, `last_accepted` holds one past the highest
  // sequence number accepted so far (0 = nothing accepted yet). Frames at or above it
  // are fresh; anything below is a replay or stale reordering.
  uint64_t& last = session.last_accepted[frame.src.node];
  if (frame.seq < last) {
    ++stats_.replay_rejects;
    return;
  }
  last = frame.seq + 1;

  // Unencrypted channels deliver the ciphertext view itself — zero-copy end to
  // end; decryption is the one true ownership boundary left.
  sim::PayloadView plaintext = frame.ciphertext;
  if (frame.flags & kFlagEncrypted) {
    uint64_t nonce = frame.seq * 2 + (frame.src.node < frame.dst.node ? 0 : 1);
    Bytes decrypted = frame.ciphertext.Copy();
    ApplyKeystream(session.key, nonce, &decrypted);
    plaintext = sim::PayloadView::Own(std::move(decrypted));
  }

  PrincipalId peer = kAnonymous;
  if (auto it = session.principals.find(frame.src.node); it != session.principals.end()) {
    peer = it->second;
  }
  // Pin the handler: it may unregister its own port mid-call, which would
  // destroy the std::function we are executing.
  std::shared_ptr<sim::TransportHandler> handler = handler_it->second;
  (*handler)(sim::TransportDelivery{frame.src, frame.dst, std::move(plaintext), peer,
                                    /*integrity_protected=*/true});
}

}  // namespace globe::sec
