#include "src/dso/runtime.h"

#include "src/util/log.h"

namespace globe::dso {

RuntimeSystem::RuntimeSystem(sim::Transport* transport, sim::NodeId host,
                             gls::DirectoryRef leaf_directory,
                             const ImplementationRepository* repository,
                             dns::GnsClient* gns)
    : transport_(transport),
      host_(host),
      gls_(transport, host, std::move(leaf_directory)),
      repository_(repository),
      gns_(gns) {}

void RuntimeSystem::Bind(const gls::ObjectId& oid, BindOptions options,
                         BindCallback done) {
  ++stats_.binds;
  gls_.Lookup(oid, [this, oid, options = std::move(options),
                    done = std::move(done)](Result<gls::LookupResult> lookup) mutable {
    if (!lookup.ok()) {
      ++stats_.bind_failures;
      done(lookup.status());
      return;
    }
    FinishBind(oid, std::move(options), std::move(lookup->addresses), std::move(done));
  });
}

void RuntimeSystem::BindByName(std::string_view globe_name, BindOptions options,
                               BindCallback done) {
  if (gns_ == nullptr) {
    done(FailedPrecondition("no GNS client configured on this host"));
    return;
  }
  gns_->Resolve(globe_name, [this, options = std::move(options),
                             done =
                                 std::move(done)](Result<std::string> oid_hex) mutable {
    if (!oid_hex.ok()) {
      done(oid_hex.status());
      return;
    }
    auto oid = gls::ObjectId::FromHex(*oid_hex);
    if (!oid.ok()) {
      done(oid.status());
      return;
    }
    Bind(*oid, std::move(options), std::move(done));
  });
}

void RuntimeSystem::FinishBind(const gls::ObjectId& oid, BindOptions options,
                               std::vector<gls::ContactAddress> addresses,
                               BindCallback done) {
  auto object = std::make_unique<BoundObject>();
  object->oid = oid;

  if (options.as_replica.has_value() && !addresses.empty()) {
    // Replica installation: instantiate the semantics subobject from the
    // repository ("remote class loading") and build the protocol replica.
    auto semantics = repository_->Instantiate(options.semantics_type);
    if (!semantics.ok()) {
      ++stats_.bind_failures;
      done(semantics.status());
      return;
    }
    ReplicaSetup setup;
    setup.transport = transport_;
    setup.host = host_;
    setup.semantics = std::move(*semantics);
    setup.role = *options.as_replica;
    setup.peers = addresses;
    auto replica = MakeReplica(addresses.front().protocol, std::move(setup));
    if (replica.ok()) {
      object->replication = std::move(*replica);
    }
  }
  if (object->replication == nullptr) {
    // A thin proxy: asked for, or the fallback for protocols that admit no
    // further replicas (e.g. client/server) — the GDN-HTTPD case: it *may* act
    // as a replica, not must.
    auto proxy = MakeProxy(transport_, host_, addresses);
    if (!proxy.ok()) {
      ++stats_.bind_failures;
      done(proxy.status());
      return;
    }
    object->replication = std::move(*proxy);
    object->control = std::make_unique<ControlObject>(object->replication.get());
    done(std::move(object));
    return;
  }
  object->control = std::make_unique<ControlObject>(object->replication.get());

  // Start (fetch state), then publish the replica's contact address in the GLS.
  auto* replication = object->replication.get();
  auto shared_object = std::make_shared<std::unique_ptr<BoundObject>>(std::move(object));
  replication->Start([this, shared_object,
                      done = std::move(done)](Status status) mutable {
    if (!status.ok()) {
      ++stats_.bind_failures;
      done(status);
      return;
    }
    ++stats_.replicas_installed;
    BoundObject* installed = shared_object->get();
    gls_.Insert(installed->oid, *installed->replication->contact_address(),
                [shared_object, done = std::move(done)](Status insert_status) mutable {
                  if (!insert_status.ok()) {
                    done(insert_status);
                    return;
                  }
                  done(std::move(*shared_object));
                });
  });
}

void RuntimeSystem::Unbind(std::unique_ptr<BoundObject> object,
                           std::function<void(Status)> done) {
  BoundObject* raw = object.get();
  auto shared_object = std::make_shared<std::unique_ptr<BoundObject>>(std::move(object));
  raw->replication->Shutdown([this, shared_object,
                              done = std::move(done)](Status status) mutable {
    BoundObject* released = shared_object->get();
    auto address = released->replication->contact_address();
    if (!address.has_value()) {
      done(status);
      return;
    }
    gls_.Delete(released->oid, *address,
                [shared_object, done = std::move(done)](Status delete_status) {
                  done(delete_status);
                });
  });
}

}  // namespace globe::dso
