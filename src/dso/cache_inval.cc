#include "src/dso/cache_inval.h"

#include <algorithm>

namespace globe::dso {

namespace {

const sim::TypedMethod<EndpointMessage, VersionMessage> kCiRegister{"ci.register"};
const sim::TypedMethod<EndpointMessage, sim::EmptyMessage> kCiUnregister{
    "ci.unregister"};
const sim::TypedMethod<sim::EmptyMessage, VersionedState> kCiFetch{"ci.fetch"};
const sim::TypedMethod<VersionMessage, PushAck> kCiInvalidate{"ci.invalidate"};

constexpr ReplicaMethods kCiMethods{kProtoCacheInval, &kDsoInvoke, nullptr,
                                    &kCiUnregister};

}  // namespace

CacheInvalMaster::CacheInvalMaster(sim::Transport* transport, sim::NodeId host,
                                   std::unique_ptr<SemanticsObject> semantics,
                                   WriteGuard write_guard)
    : Replica(transport, host, std::move(semantics), GroupRole::kMaster,
              sim::Endpoint{}, std::move(write_guard), FailoverConfig{},
              kCiMethods) {
  comm_.Register(kCiRegister,
                 [this](const sim::RpcContext&,
                        const EndpointMessage& request) -> Result<VersionMessage> {
                   group_.AddMember(request.endpoint);
                   return VersionMessage{version_, group_.epoch()};
                 });
  comm_.Register(kCiFetch,
                 [this](const sim::RpcContext&,
                        const sim::EmptyMessage&) -> Result<VersionedState> {
                   ++fetches_served_;
                   return CurrentState();
                 });
}

void CacheInvalMaster::FanOutWrite(const Invocation&, uint64_t, uint64_t,
                                   std::function<void(const FanOutResult&)> done) {
  // Invalidations retry on loss: the cache compares versions, so a duplicate
  // invalidation is harmless, and a lost one would leave a cache serving stale
  // reads for ever — exactly the message this protocol cannot afford to drop.
  // Unreachable caches are kept in the set: a cache that returns must still
  // receive the next invalidation, or it would serve its pre-outage copy
  // indefinitely.
  group_.FanOut(kCiInvalidate, VersionMessage{version_, group_.epoch()},
                kFanOutDeadline, /*drop_unreachable=*/false, /*commit_point=*/0,
                [done = std::move(done)](const FanOutResult&) {
                  done(FanOutResult{});
                });
}

CacheInvalCache::CacheInvalCache(sim::Transport* transport, sim::NodeId host,
                                 std::unique_ptr<SemanticsObject> semantics,
                                 sim::Endpoint master, WriteGuard write_guard)
    : Replica(transport, host, std::move(semantics), GroupRole::kCache, master,
              std::move(write_guard), FailoverConfig{}, kCiMethods) {
  comm_.Register(kCiInvalidate,
                 [this](const sim::RpcContext& ctx,
                        const VersionMessage& msg) -> Result<PushAck> {
                   ASSIGN_OR_RETURN(PushAck ack, AdmitPush(ctx, msg.epoch));
                   if (!ack.accepted) {
                     return ack;  // stale-epoch master: keep our copy
                   }
                   invalidated_ = std::max(invalidated_, msg.version);
                   if (msg.version > version_) {
                     valid_ = false;
                   }
                   return ack;
                 });
}

void CacheInvalCache::Start(std::function<void(Status)> done) {
  // Registration is find-before-insert on the master: safe to retry.
  comm_.Call(kCiRegister, primary_, EndpointMessage{comm_.endpoint()},
             [this, done = std::move(done)](Result<VersionMessage> result) {
               if (result.ok() && result->epoch > group_.epoch()) {
                 group_.set_epoch(result->epoch);
               }
               done(result.ok() ? OkStatus() : result.status());
             },
             WriteCallOptions());
}

void CacheInvalCache::ServeRead(const Invocation& invocation, sim::NodeId client,
                                InvokeCallback done) {
  if (valid_) {
    Replica::ServeRead(invocation, client, std::move(done));
    return;
  }
  ++fetches_;
  comm_.Call(kCiFetch, primary_, sim::EmptyMessage{},
             [this, invocation, client,
              done = std::move(done)](Result<VersionedState> result) mutable {
               if (!result.ok()) {
                 done(result.status());
                 return;
               }
               // A fetch never moves the copy backwards (two fetches raced and
               // the newer answer landed first).
               if (result->version >= version_) {
                 if (Status s = semantics_->SetState(result->state); !s.ok()) {
                   done(s);
                   return;
                 }
                 version_ = result->version;
                 if (result->epoch > group_.epoch()) {
                   group_.set_epoch(result->epoch);
                 }
               }
               // A small invalidation can overtake a large fetch answer: the
               // copy is valid only if no invalidation named a newer version.
               // The read that fetched it may still use it.
               valid_ = version_ >= invalidated_;
               Replica::ServeRead(invocation, client, std::move(done));
             });
}

}  // namespace globe::dso
