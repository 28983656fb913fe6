#include "src/gdn/standalone.h"

#include "src/gdn/package.h"
#include "src/util/log.h"

namespace globe::gdn {

sim::NodeId StandaloneGdnNode::AddHost(
    const std::string& name, const std::function<void(sim::NodeId)>& on_node_created) {
  sim::NodeId node = topology_.AddNode(name, domain_);
  if (on_node_created) {
    on_node_created(node);
  }
  return node;
}

StandaloneGdnNode::StandaloneGdnNode(sim::Transport* transport,
                                     StandaloneNodeOptions options,
                                     std::function<void(sim::NodeId)> on_node_created)
    : options_(std::move(options)), transport_(transport) {
  domain_ = topology_.AddDomain("standalone", sim::kNoDomain);
  repository_.RegisterSemantics(std::make_unique<PackageObject>());

  // One-domain GLS: a single directory subnode acting as root and leaf.
  gls_ = std::make_unique<gls::GlsDeployment>(transport_, &topology_, &registry_,
                                              gls::GlsDeploymentOptions{},
                                              on_node_created);

  // DNS substrate: a primary for the zone and the GNS naming authority.
  tsig_keys_["gdn-na"] = Bytes{0x6e, 0x61, 0x2d, 0x6b, 0x65, 0x79, 0x21, 0x21};
  sim::NodeId dns_host = AddHost("dns.primary", on_node_created);
  dns_primary_ =
      std::make_unique<dns::AuthoritativeServer>(transport_, dns_host, tsig_keys_);
  dns_primary_->AddZone(dns::Zone(options_.zone, /*soa_minimum_ttl=*/300),
                        /*primary=*/true);

  sim::NodeId na_host = AddHost("gns.authority", on_node_created);
  dns::NamingAuthorityOptions na_options = options_.naming_authority;
  // No secure transport in the standalone stack: like the paper's June-2000
  // first version, the naming authority accepts unauthenticated moderators.
  na_options.enforce_authorization = false;
  naming_authority_ = std::make_unique<dns::GnsNamingAuthority>(
      transport_, na_host, options_.zone, &registry_, "gdn-na", tsig_keys_["gdn-na"],
      dns_primary_->endpoint(), na_options);

  sim::NodeId resolver_host = AddHost("resolver", on_node_created);
  resolver_ = std::make_unique<dns::CachingResolver>(transport_, resolver_host);
  resolver_->AddUpstream(options_.zone, dns_primary_->endpoint());

  // The object server with its colocated GDN-enabled HTTPD.
  gos_host_ = AddHost("gos", on_node_created);
  gos_ = std::make_unique<gos::ObjectServer>(transport_, gos_host_, &repository_,
                                             gls_->LeafDirectoryFor(gos_host_),
                                             &registry_, gos::GosOptions{});
  httpd_ = std::make_unique<GdnHttpd>(transport_, gos_host_, options_.zone,
                                      naming_authority_->endpoint(),
                                      resolver_->endpoint(),
                                      gls_->LeafDirectoryFor(gos_host_), &repository_,
                                      options_.httpd);

  moderator_host_ = AddHost("moderator", on_node_created);
  moderator_ = std::make_unique<ModeratorTool>(
      transport_, moderator_host_, options_.zone, naming_authority_->endpoint(),
      resolver_->endpoint(), gls_->LeafDirectoryFor(moderator_host_), &repository_);
}

Result<gls::ObjectId> StandaloneGdnNode::PublishPackage(
    const std::string& globe_name, const std::map<std::string, Bytes>& files,
    const Pump& pump) {
  ReplicationScenario scenario;
  scenario.protocol = dso::kProtoMasterSlave;
  scenario.first_gos = gos_->endpoint();

  Result<gls::ObjectId> oid = Unavailable("pending");
  bool created = false;
  moderator_->CreatePackage(globe_name, scenario, [&](Result<gls::ObjectId> result) {
    oid = std::move(result);
    created = true;
  });
  if (!pump([&]() { return created; })) {
    return Unavailable("create package did not complete");
  }
  if (!oid.ok()) {
    return oid;
  }

  // Flush the naming batch and let the DNS update settle so the globe name
  // resolves on the next HTTP GET.
  naming_authority_->Flush();
  pump(nullptr);

  for (const auto& [path, content] : files) {
    Status status = Unavailable("pending");
    bool added = false;
    moderator_->AddFile(globe_name, path, content, [&](Status s) {
      status = s;
      added = true;
    });
    if (!pump([&]() { return added; })) {
      return Unavailable("add file did not complete: " + path);
    }
    if (!status.ok()) {
      return status;
    }
  }
  return oid;
}

}  // namespace globe::gdn
