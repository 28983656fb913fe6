// GdnServices: the services of the paper's Figure 3, assembled in one place.
//
// Given a transport, a topology the caller owns and the country domains in it,
// the constructor builds, in this order:
//   - the Globe Location Service: a directory node per domain of the topology;
//   - per country, in its first site (or in the country domain itself if it has
//     no sites): a GOS host, then a resolver host;
//   - the DNS primary for the GDN zone at country 0's site and, when there are
//     two or more countries, one secondary at country 1's site;
//   - the GNS naming authority next to the primary;
//   - a caching resolver per country (upstreams: the primary, then the secondary);
//   - one Globe Object Server per country with a colocated GDN-enabled HTTPD;
//   - the moderator machine and tool at country 0's site.
// Each new host is announced to the caller's hook with its service name before
// any traffic flows towards it. The order fixes every NodeId, and so every
// virtual-time number a simulated world reports.
//
// GdnWorld runs these services on the simulator; StandaloneGdnNode runs them in
// one domain on any backend.

#ifndef SRC_GDN_SERVICES_H_
#define SRC_GDN_SERVICES_H_

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/dns/gns.h"
#include "src/dns/resolver.h"
#include "src/dns/server.h"
#include "src/gdn/httpd.h"
#include "src/gdn/moderator.h"
#include "src/gls/deploy.h"
#include "src/gos/object_server.h"
#include "src/sim/topology.h"
#include "src/sim/transport.h"

namespace globe::gdn {

// The DNS zone the GNS names packages in.
inline constexpr char kGdnZone[] = "gdn.cs.vu.nl";

struct GdnServicesOptions {
  // Role-enforced authorization at the GLS, GOS, naming authority and replica
  // write paths (paper §6.1). Needs a transport that authenticates callers.
  bool secure = false;
  // The authority's TXT record TTL is naming_authority.record_ttl; its
  // enforce_authorization follows `secure`.
  dns::NamingAuthorityOptions naming_authority;
  HttpdOptions httpd;

  // GLS lookup caching on the hot read path: every directory subnode keeps a TTL'd
  // cache of the answers its descents returned, and the GDN-HTTPDs issue
  // cache-permitted lookups when binding to packages. Staleness is bounded by the
  // TTL plus delete-driven invalidation chains (see src/gls/cache.h). RPC deadline
  // events leave the simulator queue when responses land, so a drained step costs
  // round-trip time and a TTL behaves the same in tests as in a long run.
  bool gls_cache = false;
  sim::SimTime gls_cache_ttl = 30 * sim::kSecond;

  // The GLS directory nodes draw from seed + 1.
  uint64_t seed = 0x91de;
};

class GdnServices {
 public:
  // Called once per host the services occupy. `service` is one of "gls-host",
  // "gos-host", "resolver-host", "dns-primary", "dns-secondary",
  // "naming-authority" and "moderator". GLS hosts added by a later directory
  // split are announced too.
  using HostHook = std::function<void(sim::NodeId, std::string_view service)>;

  // Drives the backend until `done` returns true, or through the backend's own
  // notion of a drain when `done` is null; returns the final done() (true for a
  // null one). A simulator drains its queue; a socket loop polls under a time cap.
  using Pump = std::function<bool(const std::function<bool()>& done)>;

  GdnServices(sim::Transport* transport, sim::Topology* topology,
              const sec::KeyRegistry* registry, std::vector<sim::DomainId> countries,
              const GdnServicesOptions& options, HostHook on_host);

  GdnServices(const GdnServices&) = delete;
  GdnServices& operator=(const GdnServices&) = delete;

  gls::GlsDeployment& gls() { return *gls_; }
  dns::AuthoritativeServer* dns_primary() { return dns_primary_.get(); }
  dns::GnsNamingAuthority* naming_authority() { return naming_authority_.get(); }
  ModeratorTool* moderator() { return moderator_.get(); }
  sim::NodeId moderator_host() const { return moderator_host_; }
  const dso::ImplementationRepository& repository() const { return repository_; }

  size_t num_countries() const { return countries_.size(); }
  gos::ObjectServer* GosOf(size_t country) { return goses_[country].get(); }
  GdnHttpd* HttpdOf(size_t country) { return httpds_[country].get(); }
  dns::CachingResolver* ResolverOf(size_t country) { return resolvers_[country].get(); }

  // Country index of (the country domain containing) a node, or -1 for a node
  // outside every country or outside the topology: replicas report each reader's
  // NodeId, which on a socket backend is whatever the frame header claims.
  int CountryOf(sim::NodeId node) const;
  // The HTTPD and the resolver nearest to a machine: its country's, or country
  // 0's for a machine outside every country.
  GdnHttpd* NearestHttpd(sim::NodeId node) { return httpds_[HomeCountry(node)].get(); }
  dns::CachingResolver* ResolverFor(sim::NodeId node) {
    return resolvers_[HomeCountry(node)].get();
  }

  // Publishes a package through the moderator tool: the master replica on
  // `master_country`'s GOS, secondaries on the other listed countries', with
  // `maintainers` attached to the scenario. Creates the package, flushes the
  // naming batch so the name resolves on the next lookup, then adds the files,
  // pumping the backend after each step.
  Result<gls::ObjectId> PublishPackage(const std::string& globe_name,
                                       const std::map<std::string, Bytes>& files,
                                       gls::ProtocolId protocol, size_t master_country,
                                       const std::vector<size_t>& replica_countries,
                                       std::vector<sec::PrincipalId> maintainers,
                                       const Pump& pump);

 private:
  // Adds a host to `domain` and announces it to the hook.
  sim::NodeId AddHost(const std::string& name, sim::DomainId domain,
                      std::string_view service);
  // Where a country's services run: its first site, or the country itself.
  sim::DomainId SiteOf(size_t country) const;
  // CountryOf, with country 0 for a node outside every country.
  size_t HomeCountry(sim::NodeId node) const {
    return static_cast<size_t>(std::max(CountryOf(node), 0));
  }

  sim::Topology* topology_;
  std::vector<sim::DomainId> countries_;
  HostHook on_host_;
  dso::ImplementationRepository repository_;
  std::unique_ptr<gls::GlsDeployment> gls_;

  dns::TsigKeyTable tsig_keys_;
  std::unique_ptr<dns::AuthoritativeServer> dns_primary_;
  std::unique_ptr<dns::AuthoritativeServer> dns_secondary_;
  std::unique_ptr<dns::GnsNamingAuthority> naming_authority_;

  std::vector<std::unique_ptr<dns::CachingResolver>> resolvers_;
  std::vector<std::unique_ptr<gos::ObjectServer>> goses_;
  std::vector<std::unique_ptr<GdnHttpd>> httpds_;

  sim::NodeId moderator_host_ = sim::kNoNode;
  std::unique_ptr<ModeratorTool> moderator_;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_SERVICES_H_
