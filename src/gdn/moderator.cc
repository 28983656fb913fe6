#include "src/gdn/moderator.h"

#include "src/gos/object_server.h"
#include "src/util/log.h"

namespace globe::gdn {

ModeratorTool::ModeratorTool(sim::Transport* transport, sim::NodeId node,
                             std::string zone, sim::Endpoint naming_authority,
                             sim::Endpoint resolver,
                             gls::DirectoryRef leaf_directory,
                             const dso::ImplementationRepository* repository)
    : rpc_(std::make_unique<sim::Channel>(transport, node)),
      gns_(transport, node, std::move(zone), naming_authority, resolver),
      runtime_(transport, node, std::move(leaf_directory), repository, &gns_) {}

void ModeratorTool::CreatePackage(std::string globe_name, ReplicationScenario scenario,
                                  OidCallback done) {
  if (catalog_.count(globe_name) > 0) {
    done(AlreadyExists("package already in this moderator's catalog: " + globe_name));
    return;
  }
  // Step 2: "create first replica" at one GOS of the scenario.
  gos::CreateFirstReplicaRequest request{scenario.protocol, kPackageTypeId,
                                         scenario.maintainers};
  gos::kGosCreateFirstReplica.Call(
      rpc_.get(), scenario.first_gos, request,
      [this, globe_name = std::move(globe_name), scenario = std::move(scenario),
       done = std::move(done)](Result<gos::CreateFirstReplicaResponse> result) mutable {
        if (!result.ok()) {
          ++stats_.failures;
          done(result.status());
          return;
        }
        CreateSecondaries(result->oid, std::move(scenario), std::move(globe_name),
                          std::move(done));
      },
      sim::WriteCallOptions());
}

void ModeratorTool::CreateSecondaries(const gls::ObjectId& oid,
                                      ReplicationScenario scenario,
                                      std::string globe_name, OidCallback done) {
  if (scenario.replica_goses.empty()) {
    catalog_[globe_name] = CatalogEntry{oid, std::move(scenario)};
    RegisterName(oid, globe_name, std::move(done));
    return;
  }
  // Step 3: "bind to DSO <OID>, create replica" at each remaining GOS, sequentially —
  // secondary creation needs the master's GLS registration visible, and ordering
  // keeps the tool's behaviour deterministic.
  auto remaining =
      std::make_shared<std::vector<sim::Endpoint>>(scenario.replica_goses);
  auto next = std::make_shared<std::function<void(size_t)>>();
  auto self = this;
  // The stored step function holds only a weak reference to itself (a strong
  // one would be a shared_ptr cycle that never frees); each in-flight RPC
  // callback owns the strong reference that keeps the chain alive.
  *next = [self, oid, remaining,
           next_weak = std::weak_ptr<std::function<void(size_t)>>(next),
           scenario = std::move(scenario), globe_name = std::move(globe_name),
           done = std::move(done)](size_t index) mutable {
    if (index >= remaining->size()) {
      self->catalog_[globe_name] = CatalogEntry{oid, std::move(scenario)};
      self->RegisterName(oid, globe_name, std::move(done));
      return;
    }
    gos::CreateReplicaRequest request{oid, kPackageTypeId, scenario.secondary_role,
                                      scenario.maintainers};
    auto next = next_weak.lock();  // always alive: our caller holds a strong ref
    gos::kGosCreateReplica.Call(
        self->rpc_.get(), (*remaining)[index], request,
        [next, index, self](Result<gos::CreateReplicaResponse> result) {
          if (!result.ok()) {
            GLOG_WARN << "create replica failed: " << result.status();
            ++self->stats_.failures;
          }
          (*next)(index + 1);
        },
        sim::WriteCallOptions());
  };
  (*next)(0);
}

void ModeratorTool::RegisterName(const gls::ObjectId& oid, const std::string& globe_name,
                                 OidCallback done) {
  // Step 4: register the symbolic name with the GNS Naming Authority.
  gns_.AddName(globe_name, oid.ToHex(),
               [this, oid, done = std::move(done)](Status status) {
    if (!status.ok()) {
      ++stats_.failures;
      done(status);
      return;
    }
    ++stats_.packages_created;
    done(oid);
  });
}

void ModeratorTool::OpenPackage(std::string_view globe_name, BindCallback done) {
  auto it = catalog_.find(globe_name);
  if (it != catalog_.end()) {
    // Skip the GNS round trip for our own packages.
    runtime_.Bind(it->second.oid, {}, std::move(done));
    return;
  }
  runtime_.BindByName(globe_name, {}, std::move(done));
}

void ModeratorTool::AddFile(std::string_view globe_name, std::string_view path,
                            Bytes content, DoneCallback done) {
  OpenPackage(globe_name, [this, path = std::string(path), content = std::move(content),
                           done = std::move(done)](
                              Result<std::unique_ptr<dso::BoundObject>> bound) mutable {
    if (!bound.ok()) {
      ++stats_.failures;
      done(bound.status());
      return;
    }
    // The binding lives until the write completes; its callback holds it.
    auto shared = std::shared_ptr<dso::BoundObject>(std::move(*bound));
    shared->Call(pkg::kAddFile, {std::move(path), std::move(content)},
                 [this, shared, done = std::move(done)](Result<sim::EmptyMessage> r) {
                   if (r.ok()) {
                     ++stats_.files_added;
                   } else {
                     ++stats_.failures;
                   }
                   done(r.status());
                 });
  });
}

void ModeratorTool::SetDescription(std::string_view globe_name, std::string_view text,
                                   DoneCallback done) {
  OpenPackage(globe_name, [this, text = std::string(text), done = std::move(done)](
                              Result<std::unique_ptr<dso::BoundObject>> bound) mutable {
    if (!bound.ok()) {
      ++stats_.failures;
      done(bound.status());
      return;
    }
    auto shared = std::shared_ptr<dso::BoundObject>(std::move(*bound));
    shared->Call(pkg::kSetDescription, {std::move(text)},
                 [shared, done = std::move(done)](Result<sim::EmptyMessage> r) {
                   done(r.status());
                 });
  });
}

void ModeratorTool::RemovePackage(std::string_view globe_name, DoneCallback done) {
  auto it = catalog_.find(globe_name);
  if (it == catalog_.end()) {
    done(NotFound("package not in this moderator's catalog: " + std::string(globe_name)));
    return;
  }
  gls::ObjectId oid = it->second.oid;
  std::vector<sim::Endpoint> goses = it->second.scenario.replica_goses;
  goses.push_back(it->second.scenario.first_gos);
  std::string name(globe_name);
  catalog_.erase(it);

  // Remove replicas in reverse creation order (secondaries first, master last), then
  // drop the name.
  auto next = std::make_shared<std::function<void(size_t)>>();
  auto self = this;
  // Weak self-reference, as in CreateSecondaries: the in-flight RPC callback
  // carries the strong one.
  *next = [self, oid, goses = std::move(goses), name = std::move(name),
           next_weak = std::weak_ptr<std::function<void(size_t)>>(next),
           done = std::move(done)](size_t index) mutable {
    if (index >= goses.size()) {
      self->gns_.RemoveName(name, [self, done = std::move(done)](Status status) {
        if (status.ok()) {
          ++self->stats_.packages_removed;
        } else {
          ++self->stats_.failures;
        }
        done(status);
      });
      return;
    }
    auto next = next_weak.lock();  // always alive: our caller holds a strong ref
    gos::kGosRemoveReplica.Call(
        self->rpc_.get(), goses[index], gos::RemoveReplicaRequest{oid},
        [self, next, index](Result<sim::EmptyMessage> result) {
          if (!result.ok()) {
            GLOG_WARN << "remove replica failed: " << result.status();
            ++self->stats_.failures;
          }
          (*next)(index + 1);
        },
        sim::WriteCallOptions());
  };
  (*next)(0);
}

}  // namespace globe::gdn
