#include "src/gdn/world.h"

#include <algorithm>

#include "src/util/log.h"

namespace globe::gdn {

namespace {

// Bridges the replication controller to the world: every migration the
// controller decides is executed through GdnWorld::ExecuteMigration.
class WorldActuator : public ctl::PolicyActuator {
 public:
  explicit WorldActuator(GdnWorld* world) : world_(world) {}
  void Migrate(const gls::ObjectId& oid, const ctl::PolicyDecision& decision,
               std::function<void(Status)> done) override {
    world_->ExecuteMigration(oid, decision, std::move(done));
  }

 private:
  GdnWorld* world_;
};

// The country domains of a uniform world: one level above the sites.
std::vector<sim::DomainId> CountryDomains(const sim::Topology& topology, int depth) {
  std::vector<sim::DomainId> countries;
  for (sim::DomainId domain = 0; domain < topology.num_domains(); ++domain) {
    if (topology.DomainDepth(domain) == depth) {
      countries.push_back(domain);
    }
  }
  return countries;
}

}  // namespace

GdnWorld::GdnWorld(GdnWorldConfig config)
    : config_(std::move(config)),
      world_(sim::BuildUniformWorld(config_.fanouts, config_.user_hosts_per_site)),
      network_(&engine_, &world_.topology),
      plain_transport_(&network_),
      secure_transport_(config_.secure ? std::make_unique<sec::SecureTransport>(
                                             &plain_transport_, &registry_)
                                       : nullptr),
      transport_(secure_transport_ != nullptr
                     ? static_cast<sim::Transport*>(secure_transport_.get())
                     : &plain_transport_),
      services_(transport_, &world_.topology, &registry_,
                CountryDomains(world_.topology,
                               static_cast<int>(config_.fanouts.size()) - 1),
                config_, [this](sim::NodeId node, std::string_view service) {
                  CredentialHost(node, service);
                }) {
  SetupSecurity();
  SetupSearchIndex();
}

void GdnWorld::SetupSearchIndex() {
  // Create the index DSO: master on GOS 0, a slave on every other country's GOS —
  // the index is just another distributed shared object.
  Status status = Unavailable("pending");
  services_.GosOf(0)->CreateFirstReplica(
      dso::kProtoMasterSlave, kSearchIndexTypeId,
      [&](Result<std::pair<gls::ObjectId, gls::ContactAddress>> result) {
        if (result.ok()) {
          search_oid_ = result->first;
          status = OkStatus();
        } else {
          status = result.status();
        }
      });
  Run();
  if (!status.ok()) {
    GLOG_ERROR << "search index creation failed: " << status;
    return;
  }
  for (size_t i = 1; i < num_countries(); ++i) {
    services_.GosOf(i)->CreateReplica(
        search_oid_, kSearchIndexTypeId, gls::ReplicaRole::kSlave,
        [](Result<std::pair<gls::ObjectId, gls::ContactAddress>>) {});
    Run();
  }
  for (size_t i = 0; i < num_countries(); ++i) {
    services_.HttpdOf(i)->SetSearchIndex(search_oid_);
  }

  // The moderator host's admin handle for index updates.
  sim::NodeId host = services_.moderator_host();
  search_admin_runtime_ = std::make_unique<dso::RuntimeSystem>(
      transport_, host, services_.gls().LeafDirectoryFor(host), &services_.repository());
  search_admin_runtime_->Bind(search_oid_, {},
                              [&](Result<std::unique_ptr<dso::BoundObject>> r) {
                                if (r.ok()) {
                                  search_admin_ = std::move(*r);
                                }
                              });
  Run();
}

Status GdnWorld::RegisterInSearchIndex(const std::string& globe_name,
                                       const std::string& description) {
  if (search_admin_ == nullptr) {
    return FailedPrecondition("no search index available");
  }
  Status status = Unavailable("pending");
  search_admin_->Call(search::kRegister, {globe_name, description},
                      [&](Result<sim::EmptyMessage> r) { status = r.status(); });
  Run();
  return status;
}

Status GdnWorld::UnregisterFromSearchIndex(const std::string& globe_name) {
  if (search_admin_ == nullptr) {
    return FailedPrecondition("no search index available");
  }
  Status status = Unavailable("pending");
  search_admin_->Call(search::kUnregister, {globe_name},
                      [&](Result<sim::EmptyMessage> r) { status = r.status(); });
  Run();
  return status;
}

void GdnWorld::CredentialHost(sim::NodeId node, std::string_view service) {
  // The moderator machine is a GDN party only where channels authenticate it.
  bool moderator = service == "moderator";
  if (!moderator || config_.secure) {
    gdn_hosts_.insert(node);
  }
  if (!config_.secure) {
    return;
  }
  sec::Credential credential =
      moderator ? registry_.Register("moderator-arno", sec::Role::kModerator)
                : registry_.Register(std::string(service) + "." + std::to_string(node),
                                     sec::Role::kGdnHost);
  secure_transport_->SetNodeCredential(node, credential);
}

void GdnWorld::SetupSecurity() {
  if (!config_.secure) {
    return;
  }
  // Figure 4: GDN host <-> GDN host mutual; user machine -> GDN host server-auth;
  // user <-> user plain. Encryption per config.
  bool encrypt = config_.encrypt;
  secure_transport_->SetChannelPolicy(
      [this, encrypt](sim::NodeId src, sim::NodeId dst) {
        sec::ChannelConfig channel;
        bool src_trusted = IsGdnHost(src) || mutual_nodes_.count(src) > 0;
        bool dst_trusted = IsGdnHost(dst) || mutual_nodes_.count(dst) > 0;
        if (src_trusted && dst_trusted) {
          channel.auth = sec::AuthMode::kMutualAuth;
        } else if (src_trusted || dst_trusted) {
          channel.auth = sec::AuthMode::kServerAuth;
        }
        channel.encrypt = encrypt && channel.auth != sec::AuthMode::kPlain;
        return channel;
      });
}

std::unique_ptr<Browser> GdnWorld::MakeBrowser(sim::NodeId user) {
  return std::make_unique<Browser>(transport_, user);
}

Result<gls::ObjectId> GdnWorld::PublishPackage(
    const std::string& globe_name, const std::map<std::string, Bytes>& files,
    gls::ProtocolId protocol, size_t master_country,
    std::vector<size_t> replica_countries, const std::string& description,
    std::vector<sec::PrincipalId> maintainers) {
  ASSIGN_OR_RETURN(gls::ObjectId oid,
                   services_.PublishPackage(
                       globe_name, files, protocol, master_country, replica_countries,
                       std::move(maintainers), [this](const std::function<bool()>& done) {
                         Run();
                         return !done || done();
                       }));
  if (!description.empty()) {
    Status status = Unavailable("pending");
    moderator()->SetDescription(globe_name, description, [&](Status s) { status = s; });
    Run();
    RETURN_IF_ERROR(status);
    RETURN_IF_ERROR(RegisterInSearchIndex(globe_name, description));
  }
  if (controller_ != nullptr) {
    controller_->Track(oid, protocol);
  }
  return oid;
}

ctl::ReplicationController* GdnWorld::EnableAdaptiveReplication(
    ctl::ControllerConfig config, bool start_timer) {
  if (controller_ != nullptr) {
    return controller_.get();
  }
  world_metrics_ = std::make_unique<ctl::MetricsRegistry>(transport_->clock());
  actuator_ = std::make_unique<WorldActuator>(this);
  controller_ = std::make_unique<ctl::ReplicationController>(
      transport_->clock(), world_metrics_.get(), actuator_.get(), config);
  adaptive_interval_ = config.evaluate_interval;

  // Track every package DSO currently mastered on a GOS. The search index is
  // GDN infrastructure and keeps its static master/slave deployment.
  for (size_t i = 0; i < num_countries(); ++i) {
    gos::ObjectServer* gos = services_.GosOf(i);
    for (const gls::ObjectId& oid : gos->ReplicaOids()) {
      if (oid == search_oid_) {
        continue;
      }
      dso::ReplicationObject* replica = gos->FindReplica(oid);
      auto address = replica != nullptr ? replica->contact_address() : std::nullopt;
      if (address.has_value() && address->role == gls::ReplicaRole::kMaster) {
        controller_->Track(oid, gos->ProtocolOf(oid));
      }
    }
  }

  if (start_timer && adaptive_interval_ > 0) {
    ScheduleAdaptiveTick();
  }
  return controller_.get();
}

void GdnWorld::ScheduleAdaptiveTick() {
  // The evaluation pass reads every GOS's telemetry and executes migrations —
  // global state, so it runs as a barrier task.
  engine_.ScheduleBarrier(engine_.Now() + adaptive_interval_, [this] {
    EvaluateAdaptiveNow();
    ScheduleAdaptiveTick();
  });
}

void GdnWorld::EvaluateAdaptiveNow() {
  if (controller_ == nullptr) {
    return;
  }
  // Rebuild the global telemetry view: each GOS only sees the traffic its own
  // replica served, so the controller reads the merge of all of them.
  world_metrics_->Clear();
  for (size_t i = 0; i < num_countries(); ++i) {
    world_metrics_->MergeFrom(*services_.GosOf(i)->metrics());
  }
  controller_->EvaluateNow();
}

void GdnWorld::ExecuteMigration(const gls::ObjectId& oid,
                                const ctl::PolicyDecision& decision,
                                std::function<void(Status)> done) {
  // Locate the master GOS and the GOSes currently hosting secondaries.
  int master = -1;
  std::vector<size_t> secondaries;
  for (size_t i = 0; i < num_countries(); ++i) {
    if (services_.GosOf(i)->ProtocolOf(oid) == 0) {
      continue;
    }
    dso::ReplicationObject* replica = services_.GosOf(i)->FindReplica(oid);
    auto address = replica != nullptr ? replica->contact_address() : std::nullopt;
    if (address.has_value() && address->role == gls::ReplicaRole::kMaster) {
      master = static_cast<int>(i);
    } else {
      secondaries.push_back(i);
    }
  }
  if (master < 0) {
    done(NotFound("no GOS masters " + oid.ToHex()));
    return;
  }
  uint16_t semantics_type = services_.GosOf(master)->SemanticsTypeOf(oid);
  gls::ProtocolId old_protocol = services_.GosOf(master)->ProtocolOf(oid);
  bool protocol_change = decision.protocol != old_protocol;

  // Target secondary countries (regions are country indices in this world).
  std::vector<size_t> targets;
  for (ctl::RegionId region : decision.replica_regions) {
    auto country = static_cast<size_t>(region);
    if (country < num_countries() && static_cast<int>(country) != master) {
      targets.push_back(country);
    }
  }

  // A protocol change rebuilds every secondary (the old ones speak the old
  // protocol); a placement-only change touches just the set difference.
  std::vector<size_t> to_remove;
  std::vector<size_t> to_add;
  for (size_t s : secondaries) {
    if (protocol_change ||
        std::find(targets.begin(), targets.end(), s) == targets.end()) {
      to_remove.push_back(s);
    }
  }
  for (size_t t : targets) {
    if (protocol_change ||
        std::find(secondaries.begin(), secondaries.end(), t) == secondaries.end()) {
      to_add.push_back(t);
    }
  }

  gls::ReplicaRole new_role = decision.protocol == dso::kProtoCacheInval
                                  ? gls::ReplicaRole::kCache
                                  : gls::ReplicaRole::kSlave;

  // Phase 3: create the new secondaries under the (possibly new) protocol.
  auto add_phase = std::make_shared<std::function<void(Status)>>(
      [this, oid, semantics_type, new_role, to_add,
       done = std::move(done)](Status prior) mutable {
        if (!prior.ok() || to_add.empty()) {
          done(prior);
          return;
        }
        auto remaining = std::make_shared<size_t>(to_add.size());
        auto first_error = std::make_shared<Status>(OkStatus());
        for (size_t t : to_add) {
          services_.GosOf(t)->CreateReplica(
              oid, semantics_type, new_role,
              [remaining, first_error, done](
                  Result<std::pair<gls::ObjectId, gls::ContactAddress>> r) {
                if (!r.ok() && first_error->ok()) {
                  *first_error = r.status();
                }
                if (--*remaining == 0) {
                  done(*first_error);
                }
              });
        }
      });

  // Phase 2: switch the master's protocol (epoch-fenced; see
  // gos::ObjectServer::SwitchProtocol).
  auto switch_phase = [this, oid, protocol_change,
                       new_protocol = decision.protocol, master,
                       add_phase](Status prior) {
    if (!prior.ok() || !protocol_change) {
      (*add_phase)(prior);
      return;
    }
    services_.GosOf(master)->SwitchProtocol(
        oid, new_protocol, [add_phase](Status s) { (*add_phase)(s); });
  };

  // Phase 1: retire the secondaries that do not survive.
  if (to_remove.empty()) {
    switch_phase(OkStatus());
    return;
  }
  auto remaining = std::make_shared<size_t>(to_remove.size());
  auto first_error = std::make_shared<Status>(OkStatus());
  auto next = std::make_shared<std::function<void(Status)>>(std::move(switch_phase));
  for (size_t s : to_remove) {
    services_.GosOf(s)->RemoveReplica(oid, [remaining, first_error, next](Status st) {
      if (!st.ok() && first_error->ok()) {
        *first_error = st;
      }
      if (--*remaining == 0) {
        (*next)(*first_error);
      }
    });
  }
}

sec::PrincipalId GdnWorld::AddMaintainerMachine(const std::string& name,
                                                sim::NodeId node) {
  sec::Credential credential = registry_.Register(name, sec::Role::kMaintainer);
  if (config_.secure && secure_transport_ != nullptr) {
    secure_transport_->SetNodeCredential(node, credential);
    mutual_nodes_.insert(node);
  }
  return credential.id;
}

Result<Bytes> GdnWorld::Get(sim::NodeId user, const std::string& target) {
  auto browser = MakeBrowser(user);
  Result<Bytes> out = Unavailable("pending");
  sim::SimTime started = engine_.Now();
  browser->Fetch(NearestHttpd(user)->node(), target,
                 [&](Result<http::HttpResponse> response) {
                   last_op_duration_ = engine_.Now() - started;
                   if (!response.ok()) {
                     out = response.status();
                   } else if (response->status_code != 200) {
                     out = NotFound("HTTP " + std::to_string(response->status_code) +
                                    ": " + ToString(response->body));
                   } else {
                     out = std::move(response->body);
                   }
                 });
  Run();
  return out;
}

Result<Bytes> GdnWorld::DownloadFile(sim::NodeId user, const std::string& globe_name,
                                     const std::string& file_path) {
  return Get(user, http::UrlEncode("/packages" + globe_name + "/files/" + file_path));
}

Result<std::string> GdnWorld::FetchListing(sim::NodeId user,
                                           const std::string& globe_name) {
  ASSIGN_OR_RETURN(Bytes body, Get(user, http::UrlEncode("/packages" + globe_name)));
  return ToString(body);
}

Result<std::string> GdnWorld::SearchViaHttp(sim::NodeId user, const std::string& query) {
  ASSIGN_OR_RETURN(Bytes body, Get(user, "/search?q=" + http::UrlEncode(query)));
  return ToString(body);
}

}  // namespace globe::gdn
