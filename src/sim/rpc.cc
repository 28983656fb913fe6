#include "src/sim/rpc.h"

#include <algorithm>
#include <atomic>
#include <cassert>

#include "src/util/log.h"

namespace globe::sim {

namespace {
constexpr uint8_t kFrameRequest = 0;
constexpr uint8_t kFrameResponse = 1;
constexpr double kEwmaAlpha = 0.2;
}  // namespace

uint16_t AllocateEphemeralPort() {
  static std::atomic<uint32_t> next{kPortClientBase};
  uint32_t p = next.fetch_add(1);
  // Wrap within the 16-bit ephemeral range [kPortClientBase, 65535].
  return static_cast<uint16_t>(kPortClientBase +
                               (p - kPortClientBase) % (65536 - kPortClientBase));
}

RpcServer::RpcServer(Transport* transport, NodeId node, uint16_t port)
    : transport_(transport),
      node_(node),
      port_(port),
      alive_(std::make_shared<bool>(true)) {
  transport_->RegisterPort(node_, port_,
                           [this](const TransportDelivery& d) { OnDelivery(d); });
}

RpcServer::~RpcServer() {
  *alive_ = false;
  transport_->UnregisterPort(node_, port_);
}

void RpcServer::RegisterMethod(std::string method, SyncHandler handler,
                               MethodTraits traits) {
  method_traits_[method] = traits;
  sync_methods_[std::move(method)] = std::move(handler);
}

void RpcServer::RegisterAsyncMethod(std::string method, AsyncHandler handler,
                                    MethodTraits traits) {
  method_traits_[method] = traits;
  async_methods_[std::move(method)] = std::move(handler);
}

void RpcServer::OnDelivery(const TransportDelivery& delivery) {
  if (delivery.transport_error) {
    // A lost path to some client. Servers are passive: the client's retry
    // machinery owns recovery, and any response we owed it is simply dropped
    // on the floor exactly as if the frame had been lost in flight.
    return;
  }
  // The whole frame is parsed as views over the delivery buffer: no field is
  // copied unless it must outlive this callback (deferred dispatch below).
  ByteReader reader(delivery.payload);
  auto type = reader.ReadU8();
  auto request_id = reader.ReadU64();
  if (!type.ok() || !request_id.ok() || *type != kFrameRequest) {
    GLOG_WARN << "rpc server " << ToString(endpoint()) << ": malformed frame dropped";
    return;
  }
  auto call_id = reader.ReadU64();
  auto method = reader.ReadStringView();
  auto payload = reader.ReadLengthPrefixedView();
  if (!call_id.ok() || !method.ok() || !payload.ok()) {
    GLOG_WARN << "rpc server " << ToString(endpoint()) << ": truncated request dropped";
    return;
  }

  RpcContext context{delivery.src, delivery.peer_principal, delivery.integrity_protected};
  uint64_t id = *request_id;

  // At-most-once execution for non-idempotent methods: a duplicate delivery of
  // an already-accepted call never reaches the handler (and never pays the
  // service-time queue) — it is answered from the dedup table, immediately if
  // the first execution finished, or when it does.
  std::optional<DedupKey> dedup_key;
  if (auto traits = method_traits_.find(*method);
      traits != method_traits_.end() && !traits->second.idempotent) {
    EvictExpiredDedup();
    DedupKey key{delivery.src, *call_id};
    auto [entry, inserted] = dedup_.try_emplace(key);
    if (!inserted) {
      ++duplicates_suppressed_;
      if (entry->second.completed) {
        SendResponse(delivery.src, id, entry->second.response);
      } else {
        entry->second.waiting_attempts.push_back(id);
      }
      return;
    }
    entry->second.waiting_attempts.push_back(id);
    dedup_key = key;
  }

  ++requests_served_;

  if (service_time_ == 0) {
    Dispatch(*method, *payload, context, id, dedup_key);
    return;
  }
  // Requests queue FIFO behind whatever is already being served. The queued
  // request pins the delivery buffer instead of copying: `pin` holds the
  // backing alive, and the method/payload views stay valid until the virtual
  // CPU gets to them.
  Clock* clock = transport_->clock();
  SimTime now = clock->Now();
  busy_until_ = std::max(now, busy_until_) + service_time_;
  clock->ScheduleAfter(
      busy_until_ - now, [this, alive = std::weak_ptr<bool>(alive_),
                      pin = delivery.payload, method = *method, payload = *payload,
                      context, id, dedup_key]() {
        auto a = alive.lock();
        if (!a || !*a) {
          return;
        }
        Dispatch(method, payload, context, id, dedup_key);
      });
}

void RpcServer::Dispatch(std::string_view method, ByteSpan payload,
                         const RpcContext& context, uint64_t request_id,
                         std::optional<DedupKey> dedup_key) {
  const Endpoint client = context.client;
  auto respond = [this, client, request_id, dedup_key](Result<Bytes> result) {
    if (dedup_key.has_value()) {
      CompleteDeduped(*dedup_key, std::move(result));
    } else {
      SendResponse(client, request_id, result);
    }
  };
  if (auto it = sync_methods_.find(method); it != sync_methods_.end()) {
    respond(it->second(context, payload));
    return;
  }
  if (auto it = async_methods_.find(method); it != async_methods_.end()) {
    it->second(context, payload, respond);
    return;
  }
  respond(NotFound("no such method: " + std::string(method)));
}

void RpcServer::CompleteDeduped(const DedupKey& key, Result<Bytes> result) {
  auto it = dedup_.find(key);
  if (it == dedup_.end()) {
    // Unreachable in practice: in-progress entries are never evicted. Dropping
    // the response is safe — the client's retry would simply execute afresh.
    return;
  }
  std::vector<uint64_t> waiting = std::move(it->second.waiting_attempts);
  // A transient failure must not be pinned: UNAVAILABLE is exactly the code
  // client retry policies repeat, and replaying a cached UNAVAILABLE would doom
  // every retry of the call for the whole TTL. The entry is dropped instead, so
  // a retry re-executes — which the handlers in this tree make safe: they
  // return UNAVAILABLE only from steps that are repeatable (chains whose
  // sub-calls are themselves deduped or idempotent) or after rolling back.
  // Definitive outcomes — success and application errors — are cached and
  // replayed verbatim; the table takes the response instead of a copy.
  const Result<Bytes>* response = &result;
  if (!result.ok() && result.status().code() == StatusCode::kUnavailable) {
    dedup_.erase(it);
  } else {
    DedupEntry& entry = it->second;
    entry.completed = true;
    entry.response = std::move(result);
    entry.expires_at = transport_->clock()->Now() + kDedupTtl;
    dedup_expiry_.emplace_back(entry.expires_at, key);
    response = &entry.response;
  }
  for (uint64_t attempt : waiting) {
    SendResponse(key.first, attempt, *response);
  }
}

void RpcServer::EvictExpiredDedup() {
  SimTime now = transport_->clock()->Now();
  while (!dedup_expiry_.empty() && dedup_expiry_.front().first <= now) {
    dedup_.erase(dedup_expiry_.front().second);
    dedup_expiry_.pop_front();
  }
  // Bounded memory: beyond the cap the oldest completed entries go first (their
  // clients have long since seen the response or exhausted their retries).
  while (dedup_.size() > kDedupMaxEntries && !dedup_expiry_.empty()) {
    dedup_.erase(dedup_expiry_.front().second);
    dedup_expiry_.pop_front();
  }
}

void RpcServer::SerializeDedup(ByteWriter* writer) const {
  // The expiry queue holds exactly the completed entries, in completion order
  // (in-flight executions are keyed in dedup_ but never queued); filter
  // defensively anyway so a checkpoint can never reference a missing entry.
  std::vector<std::pair<SimTime, DedupKey>> live;
  for (const auto& item : dedup_expiry_) {
    auto it = dedup_.find(item.second);
    if (it != dedup_.end() && it->second.completed) {
      live.push_back(item);
    }
  }
  writer->WriteVarint(live.size());
  for (const auto& [expires_at, key] : live) {
    const DedupEntry& entry = dedup_.at(key);
    wire::Put(writer, key.first);
    writer->WriteU64(key.second);
    writer->WriteU64(expires_at);
    if (entry.response.ok()) {
      writer->WriteU8(static_cast<uint8_t>(StatusCode::kOk));
      writer->WriteLengthPrefixed(entry.response.value());
    } else {
      writer->WriteU8(static_cast<uint8_t>(entry.response.status().code()));
      writer->WriteString(entry.response.status().message());
    }
  }
}

Status RpcServer::RestoreDedup(ByteReader* reader) {
  constexpr uint64_t kMaxRestoredEntries = 1 << 20;
  std::map<DedupKey, DedupEntry> restored;
  std::deque<std::pair<SimTime, DedupKey>> expiry;
  ASSIGN_OR_RETURN(uint64_t count, reader->ReadVarint());
  if (count > kMaxRestoredEntries) {
    return InvalidArgument("implausible dedup entry count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    DedupKey key;
    ASSIGN_OR_RETURN(key.first, wire::Read<Endpoint>(reader));
    ASSIGN_OR_RETURN(key.second, reader->ReadU64());
    DedupEntry entry;
    entry.completed = true;
    ASSIGN_OR_RETURN(entry.expires_at, reader->ReadU64());
    ASSIGN_OR_RETURN(uint8_t code, reader->ReadU8());
    if (code == static_cast<uint8_t>(StatusCode::kOk)) {
      // The dedup table owns its cached responses past this parse: a true
      // ownership boundary, copied explicitly.
      ASSIGN_OR_RETURN(ByteSpan payload, reader->ReadLengthPrefixedView());
      entry.response = ToBytes(payload);
    } else {
      if (code > static_cast<uint8_t>(StatusCode::kDataLoss)) {
        return InvalidArgument("malformed dedup entry status");
      }
      ASSIGN_OR_RETURN(std::string_view message, reader->ReadStringView());
      entry.response = Status(static_cast<StatusCode>(code), std::string(message));
    }
    expiry.emplace_back(entry.expires_at, key);
    restored[key] = std::move(entry);
  }
  dedup_ = std::move(restored);
  dedup_expiry_ = std::move(expiry);
  return OkStatus();
}

void RpcServer::SendResponse(const Endpoint& client, uint64_t request_id,
                             const Result<Bytes>& result) {
  // The scratch writer keeps its capacity across responses; the transport
  // consumes the span before Send returns, so reuse is safe even when a
  // handler's response triggers another synchronous send downstream.
  send_scratch_.Reset();
  send_scratch_.WriteU8(kFrameResponse);
  send_scratch_.WriteU64(request_id);
  if (result.ok()) {
    send_scratch_.WriteU8(static_cast<uint8_t>(StatusCode::kOk));
    send_scratch_.WriteString("");
    send_scratch_.WriteLengthPrefixed(result.value());
  } else {
    send_scratch_.WriteU8(static_cast<uint8_t>(result.status().code()));
    send_scratch_.WriteString(result.status().message());
    send_scratch_.WriteLengthPrefixed({});
  }
  ++responses_sent_;
  transport_->Send(endpoint(), client, send_scratch_.span());
}

// ---------------------------------------------------------------- Channel

namespace {

struct PendingCall {
  Endpoint server;
  std::string_view method;  // outlives the call (see Channel::Call)
  Bytes request;  // kept for retries
  Channel::Callback done;
  CallOptions options;
  uint32_t attempt = 1;  // 1-based
  SimTime sent_at = 0;   // last attempt's send time
  // Timer lifecycle, one slot per role so no path can orphan one: exactly one
  // of these is live while the call is in flight — the deadline while an
  // attempt is on the wire, the backoff while waiting to resend — and every
  // exit (response, cancel, channel teardown, peer failure) clears both.
  Clock::TimerId deadline_timer = Clock::kNoTimer;
  Clock::TimerId backoff_timer = Clock::kNoTimer;
  // Every attempt goes on the wire under its own request id, so a late response
  // can always be attributed to the exact attempt that caused it (a stale OK
  // completes the call; a stale error was already charged when its deadline
  // fired and is dropped).
  uint64_t current_attempt_id = 0;
  std::vector<uint64_t> attempt_ids;  // all ids this call has used, for cleanup
};

struct PeerEntry {
  PeerLoad load;
};

}  // namespace

struct ChannelState {
  Transport* transport = nullptr;
  NodeId node = kNoNode;
  uint16_t port = 0;
  // Calls are keyed by their first attempt's id; attempt_to_call maps every
  // issued wire id (first attempt and retries) back to its call.
  std::map<uint64_t, PendingCall> pending;
  std::map<uint64_t, uint64_t> attempt_to_call;
  std::map<Endpoint, PeerEntry> peers;
  ChannelStats stats;
  // Scratch buffer for request frames, reused across attempts (the transport
  // consumes the span before Send returns).
  ByteWriter send_scratch;
};

namespace {

// Request ids are unique across every Channel in the process, not just within
// one: ephemeral ports wrap and can hand a new channel an endpoint a dead one
// used, and the server's (endpoint, call id) dedup key must never see the same
// pair twice within a TTL. A process-wide counter makes the ids collision-free
// without affecting determinism (id values never influence behaviour, only
// correlation).
uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}

void SendAttempt(const std::shared_ptr<ChannelState>& state, uint64_t id);

void EraseAttemptIds(const std::shared_ptr<ChannelState>& state,
                     const PendingCall& call) {
  for (uint64_t attempt_id : call.attempt_ids) {
    state->attempt_to_call.erase(attempt_id);
  }
}

void CancelCallTimers(const std::shared_ptr<ChannelState>& state, PendingCall& call) {
  Clock* clock = state->transport->clock();
  if (call.deadline_timer != Clock::kNoTimer) {
    clock->CancelTimer(call.deadline_timer);
    call.deadline_timer = Clock::kNoTimer;
  }
  if (call.backoff_timer != Clock::kNoTimer) {
    clock->CancelTimer(call.backoff_timer);
    call.backoff_timer = Clock::kNoTimer;
  }
}

// Completes a call: drops its pending entry and load accounting, then runs the
// callback last — it may destroy the Channel (the caller's shared_ptr keeps the
// state alive through the call).
void Finalize(const std::shared_ptr<ChannelState>& state, uint64_t id,
              Result<PayloadView> result) {
  auto it = state->pending.find(id);
  assert(it != state->pending.end());
  assert(it->second.deadline_timer == Clock::kNoTimer &&
         it->second.backoff_timer == Clock::kNoTimer);
  Channel::Callback done = std::move(it->second.done);
  PeerEntry& peer = state->peers[it->second.server];
  assert(peer.load.outstanding > 0);
  --peer.load.outstanding;
  EraseAttemptIds(state, it->second);
  state->pending.erase(it);
  done(std::move(result));
}

// Charges one failed attempt against the call's retry budget. The caller must
// already have cleared the call's timers (the deadline fired, or the response
// that carried the error cancelled it).
void OnAttemptFailed(const std::shared_ptr<ChannelState>& state, uint64_t id,
                     Status failure) {
  auto it = state->pending.find(id);
  if (it == state->pending.end()) {
    return;
  }
  PendingCall& call = it->second;
  assert(call.deadline_timer == Clock::kNoTimer &&
         call.backoff_timer == Clock::kNoTimer);
  const RetryPolicy& retry = call.options.retry;
  if (call.attempt < retry.attempts && retry.ShouldRetry(failure)) {
    ++state->stats.retries;
    SimTime backoff = retry.BackoffFor(call.attempt);
    ++call.attempt;
    // The retry gets a fresh wire id now, so any response still in flight for
    // the failed attempt is recognisably stale from this point on.
    uint64_t attempt_id = NextRequestId();
    call.current_attempt_id = attempt_id;
    call.attempt_ids.push_back(attempt_id);
    state->attempt_to_call[attempt_id] = id;
    call.backoff_timer = state->transport->clock()->ScheduleAfter(
        backoff, [weak = std::weak_ptr<ChannelState>(state), id]() {
          if (auto s = weak.lock()) {
            SendAttempt(s, id);
          }
        });
    return;
  }
  state->peers[call.server].load.failed++;
  Finalize(state, id, std::move(failure));
}

void OnDeadline(const std::shared_ptr<ChannelState>& state, uint64_t id) {
  auto it = state->pending.find(id);
  if (it == state->pending.end()) {
    return;  // already answered (the deadline timer should have been cancelled)
  }
  ++state->stats.deadline_exceeded;
  it->second.deadline_timer = Clock::kNoTimer;
  OnAttemptFailed(state, id, Unavailable("rpc deadline exceeded: " +
                                         std::string(it->second.method)));
}

void SendAttempt(const std::shared_ptr<ChannelState>& state, uint64_t id) {
  auto it = state->pending.find(id);
  if (it == state->pending.end()) {
    return;
  }
  PendingCall& call = it->second;
  call.backoff_timer = Clock::kNoTimer;  // if we got here via backoff, it fired

  ByteWriter& writer = state->send_scratch;
  writer.Reset();
  writer.WriteU8(kFrameRequest);
  writer.WriteU64(call.current_attempt_id);
  // The stable call id: every retry repeats it, so the server can recognise a
  // duplicate delivery of this call and execute non-idempotent methods at most
  // once (call ids are unique across every channel in the process, so the key
  // stays unambiguous even if a later channel reuses this one's port).
  writer.WriteU64(id);
  writer.WriteString(call.method);
  writer.WriteLengthPrefixed(call.request);

  Clock* clock = state->transport->clock();
  call.sent_at = clock->Now();
  call.deadline_timer = clock->ScheduleAfter(
      call.options.deadline, [weak = std::weak_ptr<ChannelState>(state), id]() {
        if (auto s = weak.lock()) {
          OnDeadline(s, id);
        }
      });
  // The request copy exists only to be re-sent; once no retries remain (the
  // common case — attempts defaults to 1), release it rather than holding a
  // second copy of a possibly large payload for the call's whole lifetime.
  if (call.attempt >= call.options.retry.attempts) {
    call.request = Bytes{};
  }
  state->transport->Send({state->node, state->port}, call.server, writer.span());
}

// The transport lost its path to `peer` (socket backend: connection refused,
// reset, or EOF). Every call with an attempt on the wire towards that peer
// fails fast with UNAVAILABLE — exactly the code retry policies treat as
// transient, so budgets and backoff engage instead of waiting out deadlines.
// Calls already sitting in backoff are left alone: their resend will probe the
// peer again.
void OnPeerFailed(const std::shared_ptr<ChannelState>& state, const Endpoint& peer) {
  std::vector<uint64_t> affected;
  for (auto& [id, call] : state->pending) {
    if (call.server == peer && call.deadline_timer != Clock::kNoTimer) {
      affected.push_back(id);
    }
  }
  for (uint64_t id : affected) {
    auto it = state->pending.find(id);
    if (it == state->pending.end()) {
      continue;  // a previous failure's callback cancelled it
    }
    CancelCallTimers(state, it->second);
    OnAttemptFailed(state, id,
                    Unavailable("transport lost peer " + ToString(peer)));
  }
}

void OnChannelDelivery(const std::shared_ptr<ChannelState>& state,
                       const TransportDelivery& delivery) {
  if (delivery.transport_error) {
    OnPeerFailed(state, delivery.src);
    return;
  }
  ByteReader reader(delivery.payload);
  auto type = reader.ReadU8();
  auto request_id = reader.ReadU64();
  if (!type.ok() || !request_id.ok() || *type != kFrameResponse) {
    return;
  }
  auto alias = state->attempt_to_call.find(*request_id);
  if (alias == state->attempt_to_call.end()) {
    return;  // late response after completion or cancellation: ignore
  }
  uint64_t call_id = alias->second;
  auto it = state->pending.find(call_id);
  if (it == state->pending.end()) {
    return;
  }
  auto code = reader.ReadU8();
  auto message = reader.ReadStringView();
  auto payload = reader.ReadLengthPrefixedView();
  if (!code.ok() || !message.ok() || !payload.ok()) {
    return;
  }
  PendingCall& call = it->second;

  // A stale error response — from an attempt whose deadline already fired and
  // whose retry has been scheduled or sent: that attempt was charged against the
  // retry budget when it timed out, so processing its response too would burn the
  // budget twice (or fail the call while a live retry is still in flight). A
  // stale OK response, by contrast, completes the call and supersedes the retry.
  if (*request_id != call.current_attempt_id &&
      *code != static_cast<uint8_t>(StatusCode::kOk)) {
    return;
  }

  // The response landed: erase the deadline (or, for a stale OK that overtakes
  // a scheduled retry, the pending backoff) so the drained clock never replays
  // a timeout that did not happen.
  CancelCallTimers(state, call);

  PeerLoad& load = state->peers[call.server].load;
  ++load.completed;
  double latency =
      static_cast<double>(state->transport->clock()->Now() - call.sent_at);
  load.ewma_latency_us = load.ewma_latency_us == 0
                             ? latency
                             : (1 - kEwmaAlpha) * load.ewma_latency_us +
                                   kEwmaAlpha * latency;

  if (*code == static_cast<uint8_t>(StatusCode::kOk)) {
    // The callback receives a sub-view of the delivery buffer — the payload is
    // never copied on the response path; callers that retain it pin or copy.
    Finalize(state, call_id, delivery.payload.Share(*payload));
    return;
  }
  Status failure(static_cast<StatusCode>(*code), std::string(*message));
  OnAttemptFailed(state, call_id, std::move(failure));
}

}  // namespace

Channel::Channel(Transport* transport, NodeId node)
    : state_(std::make_shared<ChannelState>()) {
  state_->transport = transport;
  state_->node = node;
  state_->port = AllocateEphemeralPort();
  transport->RegisterPort(node, state_->port,
                          [weak = std::weak_ptr<ChannelState>(state_)](
                              const TransportDelivery& d) {
                            if (auto s = weak.lock()) {
                              OnChannelDelivery(s, d);
                            }
                          });
}

Channel::~Channel() {
  state_->transport->UnregisterPort(state_->node, state_->port);
  // Erase every in-flight deadline/backoff timer: a destroyed client must not
  // leave the clock holding 30 s of dead time.
  for (auto& [id, call] : state_->pending) {
    CancelCallTimers(state_, call);
  }
  state_->pending.clear();
  state_->attempt_to_call.clear();
}

CallHandle Channel::Call(const Endpoint& server, std::string_view method, Bytes request,
                         Callback done, CallOptions options) {
  uint64_t id = NextRequestId();
  PendingCall call;
  call.server = server;
  call.method = method;
  call.request = std::move(request);
  call.done = std::move(done);
  call.options = std::move(options);
  call.current_attempt_id = id;
  call.attempt_ids.push_back(id);
  state_->pending.emplace(id, std::move(call));
  state_->attempt_to_call[id] = id;
  ++state_->stats.calls;
  ++state_->peers[server].load.outstanding;
  SendAttempt(state_, id);
  return CallHandle(state_, id);
}

sim::PeerLoad Channel::PeerLoad(const Endpoint& peer) const {
  auto it = state_->peers.find(peer);
  return it == state_->peers.end() ? sim::PeerLoad{} : it->second.load;
}

const ChannelStats& Channel::stats() const { return state_->stats; }

NodeId Channel::node() const { return state_->node; }

Endpoint Channel::endpoint() const { return {state_->node, state_->port}; }

void CallHandle::Cancel() {
  auto state = state_.lock();
  if (!state) {
    return;
  }
  auto it = state->pending.find(id_);
  if (it == state->pending.end()) {
    return;  // already completed
  }
  // Both timer slots are cleared, so a call cancelled between attempts — while
  // its backoff timer (not a deadline) is the live one — schedules nothing
  // further on either backend.
  CancelCallTimers(state, it->second);
  PeerEntry& peer = state->peers[it->second.server];
  assert(peer.load.outstanding > 0);
  --peer.load.outstanding;
  EraseAttemptIds(state, it->second);
  state->pending.erase(it);
  ++state->stats.cancelled;
}

bool CallHandle::active() const {
  auto state = state_.lock();
  return state && state->pending.count(id_) > 0;
}

}  // namespace globe::sim
