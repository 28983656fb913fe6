// Request/response RPC over the transport seam.
//
// Globe services talk to each other in request/response style (GLS lookups, GOS
// commands, DNS queries, HTTP). This layer provides correlation, deadlines, retries
// and a pluggable Transport so the secure channel wrapper in src/sec can interpose
// without the services knowing (the paper §6.3 swaps TCP for TLS exactly this way:
// "we have cleanly separated communication from functional layers"). Everything
// here is written against sim::Transport and sim::Clock only, so the same stack
// runs over the simulated network and over real TCP (src/net).
//
// Client API, in three layers:
//   - Channel: the per-process client half. Channel::Call issues a call and returns
//     a movable CallHandle supporting Cancel(). Every call carries a deadline whose
//     simulator event is erased the moment the response lands (so draining a
//     synchronous test step costs the round-trip time, not the timeout), and an
//     optional declarative RetryPolicy replacing ad-hoc caller retry loops.
//   - Channel::PeerLoad: per-endpoint outstanding-request depth and an EWMA of
//     response latency, the load-feedback signal behind power-of-two-choices
//     routing (DirectoryRef::TryRoute).
//   - TypedMethod<Req, Resp>: a named method with typed request/response messages
//     (each a struct naming its fields once, encoded by src/util/wire.h),
//     removing the encode -> Call -> decode -> status-check boilerplate from
//     every call site. Registers server handlers from the same definition, so a
//     wire message has exactly one description both sides share, and every
//     payload is bounds-checked by the one codec before a handler sees it.
//
// Wire format of an RPC frame (written by hand with src/util/serial.h — the
// zero-copy hot path):
//   u8 type (0 = request, 1 = response)
//   u64 request id (per attempt: retries go out under fresh ids)
//   request:  u64 call id (stable across retries; the at-most-once dedup key),
//             string method, length-prefixed payload
//   response: u8 status code, string status message, length-prefixed payload

#ifndef SRC_SIM_RPC_H_
#define SRC_SIM_RPC_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/clock.h"
#include "src/sim/endpoint.h"
#include "src/sim/transport.h"
#include "src/util/serial.h"
#include "src/util/status.h"
#include "src/util/wire.h"

namespace globe::sim {

// Per-call metadata passed to server handlers.
struct RpcContext {
  Endpoint client;
  uint64_t peer_principal = 0;
  bool integrity_protected = false;
};

// Execution semantics of one server method. Idempotent methods (the default)
// may run once per delivered attempt — repeating them cannot corrupt state.
// Non-idempotent methods get at-most-once execution: the server remembers, per
// (client endpoint, call id), the response of the first execution and replays
// it on duplicate delivery — a retry whose original response was lost — instead
// of running the handler again. This is what makes writes safe to retry.
struct MethodTraits {
  bool idempotent = true;
};

inline constexpr MethodTraits kNonIdempotent{/*idempotent=*/false};

// Dedup entries are kept for this long after a call completes. Sized to the
// maximum retry horizon of any client policy in the tree: with the default 30 s
// per-attempt deadline and 3-attempt write budgets (geometric backoff from
// 200 ms), the last duplicate can trail the first execution by ~95 s.
inline constexpr SimTime kDedupTtl = 120 * kSecond;
// At most this many completed dedup entries per server; beyond it the oldest go
// first.
inline constexpr size_t kDedupMaxEntries = 65536;

class RpcServer {
 public:
  // Methods that can answer immediately.
  using SyncHandler = std::function<Result<Bytes>(const RpcContext&, ByteSpan request)>;
  // Methods that must issue their own RPCs before answering (e.g. a GLS directory
  // node forwarding a lookup to its parent). `respond` may be called from any later
  // simulator event, exactly once.
  using Responder = std::function<void(Result<Bytes>)>;
  using AsyncHandler =
      std::function<void(const RpcContext&, ByteSpan request, Responder respond)>;

  RpcServer(Transport* transport, NodeId node, uint16_t port);
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  void RegisterMethod(std::string method, SyncHandler handler, MethodTraits traits = {});
  void RegisterAsyncMethod(std::string method, AsyncHandler handler,
                           MethodTraits traits = {});

  // At-most-once bookkeeping for non-idempotent methods: completed entries are
  // kept for kDedupTtl and evict oldest-first beyond kDedupMaxEntries. A
  // call whose handler is still running is never forgotten.
  // Duplicate deliveries answered from the dedup table (replayed or joined to
  // the in-flight execution) instead of re-running the handler.
  uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  size_t dedup_entries() const { return dedup_.size(); }

  // Models request-processing cost: with a non-zero per-request service time,
  // requests are dispatched FIFO from one virtual CPU, so a hot server builds a
  // queue and its observed latency grows with load. 0 (the default) dispatches
  // inline with no delay, exactly as before.
  void set_service_time(SimTime per_request) { service_time_ = per_request; }
  SimTime service_time() const { return service_time_; }

  // Persistence of the at-most-once table: completed entries ride along in a
  // host's checkpoint (mirroring how the GLS lookup cache rides in
  // DirectorySubnode::SaveState), so a server rebuilt from a checkpoint across a
  // crash still replays — instead of re-executing — duplicates of writes it
  // already ran. In-flight executions are deliberately not persisted: they died
  // with the process, and their retries should execute afresh on the rebuilt
  // server.
  void SerializeDedup(ByteWriter* writer) const;
  Status RestoreDedup(ByteReader* reader);

  NodeId node() const { return node_; }
  uint16_t port() const { return port_; }
  Endpoint endpoint() const { return {node_, port_}; }
  uint64_t requests_served() const { return requests_served_; }
  // Response frames serialized through the reusable scratch writer instead of a
  // fresh allocation per response.
  uint64_t responses_sent() const { return responses_sent_; }

 private:
  // One accepted non-idempotent call, identified by the issuing client endpoint
  // and the call id that stays stable across its retries.
  using DedupKey = std::pair<Endpoint, uint64_t>;
  struct DedupEntry {
    bool completed = false;
    Result<Bytes> response{Bytes{}};
    // Attempt ids whose response is owed once the (single) execution finishes.
    std::vector<uint64_t> waiting_attempts;
    SimTime expires_at = 0;  // set at completion
  };

  void OnDelivery(const TransportDelivery& delivery);
  void Dispatch(std::string_view method, ByteSpan payload,
                const RpcContext& context, uint64_t request_id,
                std::optional<DedupKey> dedup_key);
  void SendResponse(const Endpoint& client, uint64_t request_id,
                    const Result<Bytes>& result);
  // Records the execution's response and answers every attempt waiting on it.
  void CompleteDeduped(const DedupKey& key, Result<Bytes> result);
  void EvictExpiredDedup();

  Transport* transport_;
  NodeId node_;
  uint16_t port_;
  // Transparent comparators: lookups run on string_views into the receive
  // buffer without materialising a std::string per request.
  std::map<std::string, SyncHandler, std::less<>> sync_methods_;
  std::map<std::string, AsyncHandler, std::less<>> async_methods_;
  std::map<std::string, MethodTraits, std::less<>> method_traits_;
  uint64_t requests_served_ = 0;
  uint64_t responses_sent_ = 0;
  // Scratch buffer for response frames, reused across responses (Transport::Send
  // consumes the span before returning).
  ByteWriter send_scratch_;
  SimTime service_time_ = 0;
  SimTime busy_until_ = 0;  // when the virtual CPU frees up
  std::map<DedupKey, DedupEntry> dedup_;
  std::deque<std::pair<SimTime, DedupKey>> dedup_expiry_;  // completion order
  uint64_t duplicates_suppressed_ = 0;
  // Guards scheduled dispatches against a server destroyed while they queue.
  std::shared_ptr<bool> alive_;
};

// Which failures are worth repeating and how. `attempts` counts every try, so 1
// means no retries; backoff grows geometrically between attempts. Application
// errors (NotFound, PermissionDenied, ...) are never retried unless `retry_on`
// says so explicitly — by default only transport-level unavailability (deadline
// expiry, dead or unreachable servers) is considered transient.
struct RetryPolicy {
  uint32_t attempts = 1;
  SimTime backoff = 200 * kMillisecond;
  double backoff_multiplier = 2.0;
  std::function<bool(const Status&)> retry_on;

  bool ShouldRetry(const Status& status) const {
    if (retry_on) {
      return retry_on(status);
    }
    return status.code() == StatusCode::kUnavailable;
  }

  SimTime BackoffFor(uint32_t completed_attempts) const {
    double delay = static_cast<double>(backoff);
    for (uint32_t i = 1; i < completed_attempts; ++i) {
      delay *= backoff_multiplier;
    }
    return static_cast<SimTime>(delay);
  }
};

// Default per-attempt deadline for Channel calls.
inline constexpr SimTime kDefaultCallDeadline = 30 * kSecond;

struct CallOptions {
  // Per-attempt deadline. The deadline's simulator event is erased when the
  // response arrives, so the virtual clock only ever pays it on actual expiry.
  SimTime deadline = kDefaultCallDeadline;
  RetryPolicy retry;
};

// The default retry budget for state-modifying calls. Writes are safe to
// repeat because RpcServer executes non-idempotent methods at most once per
// call and replays the cached response on duplicate delivery; reads keep the
// layer's single-attempt default. Callers override the deadline where a dead
// peer must not wedge them (the replication fan-outs use 5 s per attempt).
inline CallOptions WriteCallOptions(SimTime deadline = kDefaultCallDeadline,
                                    uint32_t attempts = 3) {
  CallOptions options;
  options.deadline = deadline;
  options.retry.attempts = attempts;
  options.retry.backoff = 200 * kMillisecond;
  return options;
}

// Load feedback for one remote endpoint, as observed by one Channel.
struct PeerLoad {
  uint32_t outstanding = 0;     // calls in flight (including attempts being retried)
  double ewma_latency_us = 0;   // exponentially weighted response latency, 0 = no data
  uint64_t completed = 0;       // responses received (any status)
  uint64_t failed = 0;          // calls that exhausted their deadline and retries
};

// Strict weak ordering for power-of-two-choices picks: fewer in-flight requests
// wins; observed latency breaks ties.
inline bool LessLoaded(const PeerLoad& a, const PeerLoad& b) {
  if (a.outstanding != b.outstanding) {
    return a.outstanding < b.outstanding;
  }
  return a.ewma_latency_us < b.ewma_latency_us;
}

struct ChannelStats {
  uint64_t calls = 0;
  uint64_t retries = 0;
  uint64_t cancelled = 0;
  uint64_t deadline_exceeded = 0;  // attempts that expired (before any retry)
};

// Shared between a Channel, its in-flight calls' simulator events and the
// CallHandles it hands out; defined in rpc.cc.
struct ChannelState;

// Handle to one in-flight call. Movable; destroying a handle does NOT cancel the
// call (fire-and-forget callers may simply drop it).
class CallHandle {
 public:
  CallHandle() = default;
  CallHandle(CallHandle&&) = default;
  CallHandle& operator=(CallHandle&&) = default;
  CallHandle(const CallHandle&) = delete;
  CallHandle& operator=(const CallHandle&) = delete;

  // Abandons the call: the callback never runs, the pending entry and its deadline
  // event are erased, and scheduled retries are dropped. No-op once the call has
  // completed (or on a default-constructed handle).
  void Cancel();

  // True while the call is still in flight.
  bool active() const;

 private:
  friend class Channel;
  CallHandle(std::weak_ptr<ChannelState> state, uint64_t id)
      : state_(std::move(state)), id_(id) {}

  std::weak_ptr<ChannelState> state_;
  uint64_t id_ = 0;
};

// The client half of the RPC layer: one ephemeral port on one node, any number of
// concurrent calls to any servers.
class Channel {
 public:
  // The response payload is a pinned view into the transport's delivery buffer:
  // reading it inside the callback is free; a callback that stashes it keeps the
  // backing buffer alive (copy the view, or `result->Copy()` for owned bytes).
  using Callback = std::function<void(Result<PayloadView>)>;

  // Binds to an ephemeral port on `node`.
  Channel(Transport* transport, NodeId node);
  ~Channel();

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  // Issues a call; `done` runs at most once, with the response payload or an error
  // (UNAVAILABLE when the deadline and all retries are exhausted; whatever status
  // the server returned otherwise). It never runs after Cancel() on the returned
  // handle, nor after this Channel is destroyed. The channel keeps `method` as a
  // view, so the name must outlive the call: TypedMethod names and string
  // literals do.
  CallHandle Call(const Endpoint& server, std::string_view method, Bytes request,
                  Callback done, CallOptions options = {});

  // Load observed towards one endpoint; zeroes for peers never called.
  sim::PeerLoad PeerLoad(const Endpoint& peer) const;

  const ChannelStats& stats() const;

  NodeId node() const;
  Endpoint endpoint() const;

 private:
  std::shared_ptr<ChannelState> state_;
};

// Marker for methods whose request or response carries no payload.
struct EmptyMessage {
  static constexpr std::tuple<> kWireFields{};
};

namespace wire_internal {

// Bytes messages pass through verbatim (moved when the caller gives them up);
// everything else goes through the codec.
template <typename T>
Bytes EncodeMessage(T&& value) {
  if constexpr (std::is_same_v<std::decay_t<T>, Bytes>) {
    return std::forward<T>(value);
  } else {
    return wire::Encode(value);
  }
}

template <typename T>
Result<T> DecodeMessage(ByteSpan data) {
  if constexpr (std::is_same_v<T, Bytes>) {
    return Bytes(data.begin(), data.end());
  } else {
    return wire::Decode<T>(data);
  }
}

}  // namespace wire_internal

// A named RPC method with typed request/response messages. Both must either be
// Bytes (passed through verbatim) or name their fields in a kWireFields list
// (see src/util/wire.h), which fixes their wire layout and bounds-checks every
// count they carry. One constant describes the method for both sides of the
// wire:
//
//   inline const TypedMethod<LookupWireRequest, LookupResult> kGlsLookup{"gls.lookup"};
//   kGlsLookup.Call(&channel, server, request, [](Result<LookupResult> r) { ... });
//   kGlsLookup.Register(&server, [](const RpcContext&, const LookupWireRequest& req) {
//     ...
//   });
//
// Methods that mutate state declare it in the same constant
// (`kGlsInsert{"gls.insert", kNonIdempotent}`), so every server registering the
// method automatically executes it at most once per call.
template <typename Req, typename Resp>
class TypedMethod {
 public:
  using Callback = std::function<void(Result<Resp>)>;
  using SyncHandler = std::function<Result<Resp>(const RpcContext&, const Req&)>;
  using AsyncResponder = std::function<void(Result<Resp>)>;
  using AsyncHandler = std::function<void(const RpcContext&, Req, AsyncResponder)>;

  constexpr explicit TypedMethod(const char* name, MethodTraits traits = {})
      : name_(name), traits_(traits) {}

  const char* name() const { return name_; }
  const MethodTraits& traits() const { return traits_; }

  CallHandle Call(Channel* channel, const Endpoint& server, const Req& request,
                  Callback done, CallOptions options = {}) const {
    return channel->Call(server, name_, wire_internal::EncodeMessage(request),
                         [done = std::move(done)](Result<PayloadView> result) {
                           if (!result.ok()) {
                             done(result.status());
                             return;
                           }
                           // Decoding is the ownership boundary: the typed
                           // response copies exactly the fields it keeps.
                           done(wire_internal::DecodeMessage<Resp>(result->span()));
                         },
                         options);
  }

  void Register(RpcServer* server, SyncHandler handler) const {
    server->RegisterMethod(
        name_, [handler = std::move(handler)](const RpcContext& context,
                                              ByteSpan payload) -> Result<Bytes> {
          ASSIGN_OR_RETURN(Req request, wire_internal::DecodeMessage<Req>(payload));
          ASSIGN_OR_RETURN(Resp response, handler(context, request));
          return wire_internal::EncodeMessage(std::move(response));
        },
        traits_);
  }

  void RegisterAsync(RpcServer* server, AsyncHandler handler) const {
    server->RegisterAsyncMethod(
        name_, [handler = std::move(handler)](const RpcContext& context, ByteSpan payload,
                                              RpcServer::Responder respond) {
          auto request = wire_internal::DecodeMessage<Req>(payload);
          if (!request.ok()) {
            respond(request.status());
            return;
          }
          handler(context, std::move(*request),
                  [respond = std::move(respond)](Result<Resp> result) {
                    if (!result.ok()) {
                      respond(result.status());
                      return;
                    }
                    respond(wire_internal::EncodeMessage(std::move(*result)));
                  });
        },
        traits_);
  }

 private:
  const char* name_;
  MethodTraits traits_;
};

}  // namespace globe::sim

#endif  // SRC_SIM_RPC_H_
