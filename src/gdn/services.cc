#include "src/gdn/services.h"

#include <cassert>

#include "src/gdn/package.h"
#include "src/gdn/search.h"

namespace globe::gdn {

GdnServices::GdnServices(sim::Transport* transport, sim::Topology* topology,
                         const sec::KeyRegistry* registry,
                         std::vector<sim::DomainId> countries,
                         const GdnServicesOptions& options, HostHook on_host)
    : topology_(topology),
      countries_(std::move(countries)),
      on_host_(std::move(on_host)) {
  assert(!countries_.empty());
  repository_.RegisterSemantics(std::make_unique<PackageObject>());
  repository_.RegisterSemantics(std::make_unique<SearchIndexObject>());

  // ---- Globe Location Service: a directory node per domain. ----
  gls::GlsDeploymentOptions gls_options;
  gls_options.node_options.enforce_authorization = options.secure;
  gls_options.node_options.enable_cache = options.gls_cache;
  gls_options.node_options.cache_ttl = options.gls_cache_ttl;
  gls_options.rng_seed = options.seed + 1;
  gls_ = std::make_unique<gls::GlsDeployment>(
      transport, topology_, registry, gls_options,
      [this](sim::NodeId host) { on_host_(host, "gls-host"); });

  // ---- Country hosts: the GOS (and its HTTPD), then the resolver. ----
  std::vector<sim::NodeId> gos_hosts;
  std::vector<sim::NodeId> resolver_hosts;
  for (size_t i = 0; i < countries_.size(); ++i) {
    const std::string& name = topology_->DomainName(countries_[i]);
    gos_hosts.push_back(AddHost("gos." + name, SiteOf(i), "gos-host"));
    resolver_hosts.push_back(AddHost("resolver." + name, SiteOf(i), "resolver-host"));
  }

  // ---- DNS substrate for the GNS. ----
  tsig_keys_["gdn-na"] = Bytes{0x6e, 0x61, 0x2d, 0x6b, 0x65, 0x79, 0x21, 0x21};
  tsig_keys_["axfr"] = Bytes{0x61, 0x78, 0x66, 0x72, 0x2d, 0x6b, 0x65, 0x79};
  dns_primary_ = std::make_unique<dns::AuthoritativeServer>(
      transport, AddHost("dns.primary", SiteOf(0), "dns-primary"), tsig_keys_);
  dns_primary_->AddZone(dns::Zone(kGdnZone, /*soa_minimum_ttl=*/300), /*primary=*/true);
  if (countries_.size() >= 2) {
    dns_secondary_ = std::make_unique<dns::AuthoritativeServer>(
        transport, AddHost("dns.secondary0", SiteOf(1), "dns-secondary"), tsig_keys_);
    dns_secondary_->AddZone(dns::Zone(kGdnZone, 300), /*primary=*/false);
    dns_primary_->AddSecondary(kGdnZone, dns_secondary_->endpoint());
  }

  // Naming authority next to the primary.
  dns::NamingAuthorityOptions na_options = options.naming_authority;
  na_options.enforce_authorization = options.secure;
  naming_authority_ = std::make_unique<dns::GnsNamingAuthority>(
      transport, AddHost("gns.authority", SiteOf(0), "naming-authority"), kGdnZone,
      registry, "gdn-na", tsig_keys_["gdn-na"], dns_primary_->endpoint(), na_options);

  for (sim::NodeId host : resolver_hosts) {
    resolvers_.push_back(std::make_unique<dns::CachingResolver>(transport, host));
    resolvers_.back()->AddUpstream(kGdnZone, dns_primary_->endpoint());
    if (dns_secondary_ != nullptr) {
      resolvers_.back()->AddUpstream(kGdnZone, dns_secondary_->endpoint());
    }
  }

  // ---- Object servers + colocated GDN-HTTPDs. ----
  gos::GosOptions gos_options;
  gos_options.enforce_authorization = options.secure;
  // Access telemetry buckets clients by country; the replication controller's
  // regions are country indices. With one country every client is in region 0,
  // which is what a GOS records without the hook.
  if (countries_.size() > 1) {
    gos_options.region_of = [this](sim::NodeId node) {
      return static_cast<ctl::RegionId>(HomeCountry(node));
    };
  }
  if (options.secure) {
    gos_options.replica_write_guard = dso::RequireRoles(
        registry,
        {sec::Role::kModerator, sec::Role::kAdministrator, sec::Role::kGdnHost});
  }
  for (size_t i = 0; i < countries_.size(); ++i) {
    const gls::DirectoryRef& leaf = gls_->LeafDirectoryFor(gos_hosts[i]);
    goses_.push_back(std::make_unique<gos::ObjectServer>(
        transport, gos_hosts[i], &repository_, leaf, registry, gos_options));
    httpds_.push_back(std::make_unique<GdnHttpd>(
        transport, gos_hosts[i], kGdnZone, naming_authority_->endpoint(),
        resolvers_[i]->endpoint(), leaf, &repository_, options.httpd));
  }

  // ---- The moderator machine and tool. ----
  moderator_host_ = AddHost("moderator", SiteOf(0), "moderator");
  moderator_ = std::make_unique<ModeratorTool>(
      transport, moderator_host_, kGdnZone, naming_authority_->endpoint(),
      resolvers_[0]->endpoint(), gls_->LeafDirectoryFor(moderator_host_), &repository_);
}

sim::NodeId GdnServices::AddHost(const std::string& name, sim::DomainId domain,
                                 std::string_view service) {
  sim::NodeId node = topology_->AddNode(name, domain);
  on_host_(node, service);
  return node;
}

sim::DomainId GdnServices::SiteOf(size_t country) const {
  sim::DomainId domain = countries_[country];
  const std::vector<sim::DomainId>& sites = topology_->DomainChildren(domain);
  return sites.empty() ? domain : sites.front();
}

int GdnServices::CountryOf(sim::NodeId node) const {
  if (node >= topology_->num_nodes()) {
    return -1;
  }
  sim::DomainId domain = topology_->NodeDomain(node);
  for (size_t i = 0; i < countries_.size(); ++i) {
    if (topology_->IsAncestorOrSelf(countries_[i], domain)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Result<gls::ObjectId> GdnServices::PublishPackage(
    const std::string& globe_name, const std::map<std::string, Bytes>& files,
    gls::ProtocolId protocol, size_t master_country,
    const std::vector<size_t>& replica_countries,
    std::vector<sec::PrincipalId> maintainers, const Pump& pump) {
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
  bool created = false;
  moderator_->CreatePackage(globe_name, scenario, [&](Result<gls::ObjectId> result) {
    oid = std::move(result);
    created = true;
  });
  if (!pump([&] { return created; })) {
    return Unavailable("create package did not complete");
  }
  if (!oid.ok()) {
    return oid;
  }

  // Flush the naming batch and let the DNS update settle so the globe name
  // resolves on the next lookup.
  naming_authority_->Flush();
  pump(nullptr);

  for (const auto& [path, content] : files) {
    Status status = Unavailable("pending");
    bool added = false;
    moderator_->AddFile(globe_name, path, content, [&](Status s) {
      status = s;
      added = true;
    });
    if (!pump([&] { return added; })) {
      return Unavailable("add file did not complete: " + path);
    }
    if (!status.ok()) {
      return status;
    }
  }
  return oid;
}

}  // namespace globe::gdn
