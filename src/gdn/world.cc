#include "src/gdn/world.h"

#include <algorithm>
#include <cassert>

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

}  // namespace

GdnWorld::GdnWorld(GdnWorldConfig config)
    : config_(std::move(config)),
      world_(sim::BuildUniformWorld(config_.fanouts, config_.user_hosts_per_site)) {
  network_ = std::make_unique<sim::Network>(&engine_, &world_.topology,
                                            config_.network);

  plain_transport_ = std::make_unique<sim::PlainTransport>(network_.get());
  if (config_.secure) {
    secure_transport_ = std::make_unique<sec::SecureTransport>(
        plain_transport_.get(), &registry_, config_.crypto);
    transport_ = secure_transport_.get();
  } else {
    transport_ = plain_transport_.get();
  }

  repository_.RegisterSemantics(std::make_unique<PackageObject>());
  repository_.RegisterSemantics(std::make_unique<SearchIndexObject>());

  // ---- Globe Location Service: a directory node per domain. ----
  gls::GlsDeploymentOptions gls_options;
  gls_options.node_options.enforce_authorization = config_.secure;
  gls_options.node_options.enable_cache = config_.gls_cache;
  gls_options.node_options.cache_ttl = config_.gls_cache_ttl;
  gls_options.node_options.store_capacity = config_.gls_store_capacity;
  gls_options.rng_seed = config_.seed + 1;
  int root_subnodes = config_.root_subnodes;
  gls_options.subnode_count = [root_subnodes](sim::DomainId, int depth) {
    return depth == 0 ? root_subnodes : 1;
  };
  gls_ = std::make_unique<gls::GlsDeployment>(
      transport_, &world_.topology, &registry_, gls_options,
      [this](sim::NodeId host) { CredentialHost(host, "gls-host"); });

  // ---- Country service placement. ----
  // Countries are the domains one level above the leaves.
  int country_depth = static_cast<int>(config_.fanouts.size()) - 1;
  for (sim::DomainId domain = 0; domain < world_.topology.num_domains(); ++domain) {
    if (world_.topology.DomainDepth(domain) != country_depth) {
      continue;
    }
    Country country;
    country.domain = domain;
    // Place the GOS/HTTPD and the resolver in the country's first site.
    sim::DomainId site = world_.topology.DomainChildren(domain).empty()
                             ? domain
                             : world_.topology.DomainChildren(domain).front();
    country.gos_host =
        world_.topology.AddNode("gos." + world_.topology.DomainName(domain), site);
    country.resolver_host =
        world_.topology.AddNode("resolver." + world_.topology.DomainName(domain), site);
    CredentialHost(country.gos_host, "gos-host");
    CredentialHost(country.resolver_host, "resolver-host");
    countries_.push_back(country);
  }
  assert(!countries_.empty());

  // ---- DNS substrate for the GNS. ----
  tsig_keys_["gdn-na"] = Bytes{0x6e, 0x61, 0x2d, 0x6b, 0x65, 0x79, 0x21, 0x21};
  tsig_keys_["axfr"] = Bytes{0x61, 0x78, 0x66, 0x72, 0x2d, 0x6b, 0x65, 0x79};

  sim::DomainId primary_site =
      world_.topology.DomainChildren(countries_[0].domain).front();
  sim::NodeId dns_primary_host = world_.topology.AddNode("dns.primary", primary_site);
  CredentialHost(dns_primary_host, "dns-primary");
  dns_primary_ = std::make_unique<dns::AuthoritativeServer>(
      transport_, dns_primary_host, tsig_keys_);
  dns_primary_->AddZone(dns::Zone(config_.zone, /*soa_minimum_ttl=*/300),
                        /*primary=*/true);

  for (int i = 0; i < config_.dns_secondaries; ++i) {
    size_t country = (i + 1) % countries_.size();
    sim::DomainId site =
        world_.topology.DomainChildren(countries_[country].domain).front();
    sim::NodeId host = world_.topology.AddNode("dns.secondary" + std::to_string(i), site);
    CredentialHost(host, "dns-secondary");
    auto secondary =
        std::make_unique<dns::AuthoritativeServer>(transport_, host, tsig_keys_);
    secondary->AddZone(dns::Zone(config_.zone, 300), /*primary=*/false);
    dns_primary_->AddSecondary(config_.zone, secondary->endpoint());
    dns_secondaries_.push_back(std::move(secondary));
  }

  // Naming authority next to the primary.
  sim::NodeId na_host = world_.topology.AddNode("gns.authority", primary_site);
  CredentialHost(na_host, "naming-authority");
  dns::NamingAuthorityOptions na_options = config_.naming_authority;
  na_options.enforce_authorization = config_.secure;
  naming_authority_ = std::make_unique<dns::GnsNamingAuthority>(
      transport_, na_host, config_.zone, &registry_, "gdn-na", tsig_keys_["gdn-na"],
      dns_primary_->endpoint(), na_options);

  // ---- Resolvers: one per country, upstreams spread over all DNS servers. ----
  for (size_t i = 0; i < countries_.size(); ++i) {
    auto resolver =
        std::make_unique<dns::CachingResolver>(transport_, countries_[i].resolver_host);
    resolver->AddUpstream(config_.zone, dns_primary_->endpoint());
    for (auto& secondary : dns_secondaries_) {
      resolver->AddUpstream(config_.zone, secondary->endpoint());
    }
    resolvers_.push_back(std::move(resolver));
  }

  // ---- Object servers + colocated GDN-HTTPDs. ----
  gos::GosOptions gos_options;
  gos_options.enforce_authorization = config_.secure;
  // Access telemetry buckets clients by country; the replication controller's
  // regions are country indices (countries_ is complete by this point).
  gos_options.region_of = [this](sim::NodeId node) {
    int country = CountryOf(node);
    return country < 0 ? 0u : static_cast<ctl::RegionId>(country);
  };
  if (config_.secure) {
    gos_options.replica_write_guard = dso::RequireRoles(
        &registry_,
        {sec::Role::kModerator, sec::Role::kAdministrator, sec::Role::kGdnHost});
  }
  HttpdOptions httpd_options = config_.httpd;
  // The HTTPDs carry the GDN's read traffic: a cached world lets their binds use
  // the GLS caches (an explicitly set httpd option is preserved, though without
  // gls_cache no subnode has a cache to answer from).
  httpd_options.allow_cached_gls_lookups |= config_.gls_cache;
  for (size_t i = 0; i < countries_.size(); ++i) {
    goses_.push_back(std::make_unique<gos::ObjectServer>(
        transport_, countries_[i].gos_host, &repository_,
        gls_->LeafDirectoryFor(countries_[i].gos_host), &registry_, gos_options));
    httpds_.push_back(std::make_unique<GdnHttpd>(
        transport_, countries_[i].gos_host, config_.zone, naming_authority_->endpoint(),
        resolvers_[i]->endpoint(), gls_->LeafDirectoryFor(countries_[i].gos_host),
        &repository_, httpd_options));
  }

  // ---- The moderator machine and tool. ----
  moderator_host_ = world_.topology.AddNode("moderator", primary_site);
  if (config_.secure) {
    secure_transport_->SetNodeCredential(
        moderator_host_, registry_.Register("moderator-arno", sec::Role::kModerator));
    gdn_hosts_.insert(moderator_host_);
  }
  moderator_ = std::make_unique<ModeratorTool>(
      transport_, moderator_host_, config_.zone, naming_authority_->endpoint(),
      ResolverEndpointFor(moderator_host_), gls_->LeafDirectoryFor(moderator_host_),
      &repository_);

  SetupSecurity();
  SetupSearchIndex();
}

void GdnWorld::SetupSearchIndex() {
  // Create the index DSO: master on GOS 0, a slave on every other country's GOS —
  // the index is just another distributed shared object.
  Status status = Unavailable("pending");
  goses_[0]->CreateFirstReplica(
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
  for (size_t i = 1; i < goses_.size(); ++i) {
    goses_[i]->CreateReplica(
        search_oid_, kSearchIndexTypeId, gls::ReplicaRole::kSlave,
        [](Result<std::pair<gls::ObjectId, gls::ContactAddress>>) {});
    Run();
  }
  for (auto& httpd : httpds_) {
    httpd->SetSearchIndex(search_oid_);
  }

  // The moderator host's admin handle for index updates.
  search_admin_runtime_ = std::make_unique<dso::RuntimeSystem>(
      transport_, moderator_host_, gls_->LeafDirectoryFor(moderator_host_), &repository_);
  std::unique_ptr<dso::BoundObject> bound;
  search_admin_runtime_->Bind(search_oid_, {},
                              [&](Result<std::unique_ptr<dso::BoundObject>> r) {
                                if (r.ok()) {
                                  bound = std::move(*r);
                                }
                              });
  Run();
  if (bound != nullptr) {
    search_admin_ = std::make_unique<SearchProxy>(std::move(bound));
  }
}

Status GdnWorld::RegisterInSearchIndex(const std::string& globe_name,
                                       const std::string& description) {
  if (search_admin_ == nullptr) {
    return FailedPrecondition("no search index available");
  }
  Status status = Unavailable("pending");
  search_admin_->Register(globe_name, description, [&](Status s) { status = s; });
  Run();
  return status;
}

Status GdnWorld::UnregisterFromSearchIndex(const std::string& globe_name) {
  if (search_admin_ == nullptr) {
    return FailedPrecondition("no search index available");
  }
  Status status = Unavailable("pending");
  search_admin_->Unregister(globe_name, [&](Status s) { status = s; });
  Run();
  return status;
}

Result<std::string> GdnWorld::SearchViaHttp(sim::NodeId user, const std::string& query) {
  auto browser = MakeBrowser(user);
  GdnHttpd* httpd = NearestHttpd(user);
  Result<std::string> out = Unavailable("pending");
  sim::SimTime started = engine_.Now();
  browser->Fetch(httpd->node(), "/search?q=" + http::UrlEncode(query),
                 [&](Result<http::HttpResponse> response) {
                   last_op_duration_ = engine_.Now() - started;
                   if (!response.ok()) {
                     out = response.status();
                     return;
                   }
                   if (response->status_code != 200) {
                     out = NotFound("HTTP " + std::to_string(response->status_code));
                     return;
                   }
                   out = ToString(response->body);
                 });
  Run();
  return out;
}

void GdnWorld::CredentialHost(sim::NodeId node, const std::string& name) {
  gdn_hosts_.insert(node);
  if (config_.secure && secure_transport_ != nullptr) {
    secure_transport_->SetNodeCredential(
        node, registry_.Register(name + "." + std::to_string(node), sec::Role::kGdnHost));
  }
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

int GdnWorld::CountryOf(sim::NodeId node) const {
  sim::DomainId domain = world_.topology.NodeDomain(node);
  for (size_t i = 0; i < countries_.size(); ++i) {
    if (world_.topology.IsAncestorOrSelf(countries_[i].domain, domain)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

GdnHttpd* GdnWorld::NearestHttpd(sim::NodeId user) {
  int country = CountryOf(user);
  return httpds_[country < 0 ? 0 : static_cast<size_t>(country)].get();
}

sim::Endpoint GdnWorld::ResolverEndpointFor(sim::NodeId node) const {
  int country = CountryOf(node);
  return resolvers_[country < 0 ? 0 : static_cast<size_t>(country)]->endpoint();
}

std::unique_ptr<Browser> GdnWorld::MakeBrowser(sim::NodeId user) {
  return std::make_unique<Browser>(transport_, user);
}

Result<gls::ObjectId> GdnWorld::PublishPackage(
    const std::string& globe_name, const std::map<std::string, Bytes>& files,
    gls::ProtocolId protocol, size_t master_country,
    std::vector<size_t> replica_countries, const std::string& description,
    std::vector<sec::PrincipalId> maintainers) {
  ReplicationScenario scenario;
  scenario.protocol = protocol;
  scenario.first_gos = goses_[master_country]->endpoint();
  for (size_t country : replica_countries) {
    scenario.replica_goses.push_back(goses_[country]->endpoint());
  }
  scenario.secondary_role = protocol == dso::kProtoCacheInval ? gls::ReplicaRole::kCache
                                                              : gls::ReplicaRole::kSlave;
  scenario.maintainers = std::move(maintainers);

  Result<gls::ObjectId> oid = Unavailable("pending");
  moderator_->CreatePackage(globe_name, scenario, [&](Result<gls::ObjectId> result) {
    oid = std::move(result);
  });
  Run();
  if (!oid.ok()) {
    return oid;
  }
  // Flush the naming batch so the name resolves immediately.
  naming_authority_->Flush();
  Run();

  for (const auto& [path, content] : files) {
    Status status = Unavailable("pending");
    moderator_->AddFile(globe_name, path, content, [&](Status s) { status = s; });
    Run();
    if (!status.ok()) {
      return status;
    }
  }
  if (!description.empty()) {
    Status status = Unavailable("pending");
    moderator_->SetDescription(globe_name, description, [&](Status s) { status = s; });
    Run();
    if (!status.ok()) {
      return status;
    }
    RETURN_IF_ERROR(RegisterInSearchIndex(globe_name, description));
  }
  if (controller_ != nullptr) {
    controller_->Track(*oid, protocol);
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
  for (auto& gos : goses_) {
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
  for (auto& gos : goses_) {
    world_metrics_->MergeFrom(*gos->metrics());
  }
  controller_->EvaluateNow();
}

void GdnWorld::ExecuteMigration(const gls::ObjectId& oid,
                                const ctl::PolicyDecision& decision,
                                std::function<void(Status)> done) {
  // Locate the master GOS and the GOSes currently hosting secondaries.
  int master = -1;
  std::vector<size_t> secondaries;
  for (size_t i = 0; i < goses_.size(); ++i) {
    if (goses_[i]->ProtocolOf(oid) == 0) {
      continue;
    }
    dso::ReplicationObject* replica = goses_[i]->FindReplica(oid);
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
  uint16_t semantics_type = goses_[master]->SemanticsTypeOf(oid);
  gls::ProtocolId old_protocol = goses_[master]->ProtocolOf(oid);
  bool protocol_change = decision.protocol != old_protocol;

  // Target secondary countries (regions are country indices in this world).
  std::vector<size_t> targets;
  for (ctl::RegionId region : decision.replica_regions) {
    auto country = static_cast<size_t>(region);
    if (country < goses_.size() && static_cast<int>(country) != master) {
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
          goses_[t]->CreateReplica(
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
    goses_[master]->SwitchProtocol(
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
    goses_[s]->RemoveReplica(oid, [remaining, first_error, next](Status st) {
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

Result<Bytes> GdnWorld::DownloadFile(sim::NodeId user, const std::string& globe_name,
                                     const std::string& file_path) {
  auto browser = MakeBrowser(user);
  GdnHttpd* httpd = NearestHttpd(user);
  std::string target =
      http::UrlEncode("/packages" + globe_name + "/files/" + file_path);
  Result<Bytes> out = Unavailable("pending");
  sim::SimTime started = engine_.Now();
  browser->Fetch(httpd->node(), target, [&](Result<http::HttpResponse> response) {
    last_op_duration_ = engine_.Now() - started;
    if (!response.ok()) {
      out = response.status();
      return;
    }
    if (response->status_code != 200) {
      out = NotFound("HTTP " + std::to_string(response->status_code) + ": " +
                     ToString(response->body));
      return;
    }
    out = std::move(response->body);
  });
  Run();
  return out;
}

Result<std::string> GdnWorld::FetchListing(sim::NodeId user,
                                           const std::string& globe_name) {
  auto browser = MakeBrowser(user);
  GdnHttpd* httpd = NearestHttpd(user);
  Result<std::string> out = Unavailable("pending");
  sim::SimTime started = engine_.Now();
  browser->Fetch(httpd->node(), http::UrlEncode("/packages" + globe_name),
                 [&](Result<http::HttpResponse> response) {
                   last_op_duration_ = engine_.Now() - started;
                   if (!response.ok()) {
                     out = response.status();
                     return;
                   }
                   if (response->status_code != 200) {
                     out = NotFound("HTTP " + std::to_string(response->status_code));
                     return;
                   }
                   out = ToString(response->body);
                 });
  Run();
  return out;
}

}  // namespace globe::gdn
