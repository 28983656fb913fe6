// GdnWorld: the complete GDN deployment from the paper's Figure 3, in one object.
//
// Builds, over one simulator run:
//   - a hierarchical Internet (continents > countries > sites) with user machines,
//   - the Globe Location Service directory tree (one directory node per domain,
//     optionally partitioned at the top),
//   - the DNS-based GNS: a primary authoritative server for the GDN Zone,
//     secondaries refreshed by zone transfer, one caching resolver per country, and
//     the GNS Naming Authority,
//   - one Globe Object Server per country with a colocated GDN-enabled HTTPD,
//   - a moderator machine running the moderator tool,
//   - optionally, the Figure-4 TLS channel policy: mutual authentication between GDN
//     hosts, server authentication towards user machines, and role-enforced
//     authorization at the GLS, GOS, Naming Authority and replica write paths.
//
// Tests, examples and benchmarks all build their scenarios on this harness.

#ifndef SRC_GDN_WORLD_H_
#define SRC_GDN_WORLD_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/ctl/controller.h"
#include "src/dns/gns.h"
#include "src/dns/resolver.h"
#include "src/dns/server.h"
#include "src/gdn/httpd.h"
#include "src/gdn/moderator.h"
#include "src/gdn/search.h"
#include "src/gls/deploy.h"
#include "src/gos/object_server.h"
#include "src/sec/secure_transport.h"
#include "src/sim/backend.h"  // GdnWorld is a composition root: it owns the sim stack

namespace globe::gdn {

struct GdnWorldConfig {
  // Topology: fanouts per level below the world root, then user hosts per leaf site.
  std::vector<int> fanouts = {2, 2, 2};
  int user_hosts_per_site = 2;

  // Figure-4 security: TLS-style channels plus role-based authorization everywhere.
  bool secure = false;
  // Confidentiality on top of authentication+integrity (the cost §6.3 questions).
  bool encrypt = false;

  // DNS/GNS parameters.
  int dns_secondaries = 1;
  // The authority's TXT record TTL is naming_authority.record_ttl; its
  // enforce_authorization follows `secure`.
  dns::NamingAuthorityOptions naming_authority;

  // HTTPD behaviour.
  HttpdOptions httpd;

  // Root directory-node partitioning (1 = unpartitioned).
  int root_subnodes = 1;

  // Memory bound for every directory subnode (entries resident per subnode;
  // 0 = unbounded). See GlsOptions::store_capacity.
  size_t gls_store_capacity = 0;

  // GLS lookup caching on the hot read path: every directory subnode keeps a TTL'd
  // cache of the answers its descents returned, and the GDN-HTTPDs issue
  // cache-permitted lookups when binding to packages. Staleness is bounded by the
  // TTL plus delete-driven invalidation chains (see src/gls/cache.h). The TTL is
  // sized for actual content-churn staleness: RPC deadline events are erased from
  // the simulator queue when responses land, so a drained step costs round-trip
  // time and short TTLs behave the same in tests and benches as in a long run.
  bool gls_cache = false;
  sim::SimTime gls_cache_ttl = 30 * sim::kSecond;

  sim::NetworkOptions network;
  sec::CryptoProfile crypto;
  std::string zone = "gdn.cs.vu.nl";
  uint64_t seed = 0x91de;
};

class GdnWorld {
 public:
  explicit GdnWorld(GdnWorldConfig config = {});

  // Per-country service placement.
  struct Country {
    sim::DomainId domain = sim::kNoDomain;
    sim::NodeId gos_host = sim::kNoNode;  // also runs the colocated GDN-HTTPD
    sim::NodeId resolver_host = sim::kNoNode;
  };

  sim::Simulator& simulator() { return engine_; }
  sim::Network& network() { return *network_; }
  sim::Transport* transport() { return transport_; }
  const sim::Topology& topology() const { return world_.topology; }
  sec::SecureTransport* secure_transport() { return secure_transport_.get(); }
  const GdnWorldConfig& config() const { return config_; }

  const std::vector<Country>& countries() const { return countries_; }
  const std::vector<sim::NodeId>& user_hosts() const { return world_.hosts; }
  gls::GlsDeployment& gls() { return *gls_; }
  dns::AuthoritativeServer* dns_primary() { return dns_primary_.get(); }
  dns::GnsNamingAuthority* naming_authority() { return naming_authority_.get(); }
  ModeratorTool* moderator() { return moderator_.get(); }
  const dso::ImplementationRepository& repository() const { return repository_; }

  gos::ObjectServer* GosOf(size_t country) { return goses_[country].get(); }
  GdnHttpd* HttpdOf(size_t country) { return httpds_[country].get(); }
  dns::CachingResolver* ResolverOf(size_t country) { return resolvers_[country].get(); }
  size_t num_countries() const { return countries_.size(); }

  // Country index of (the country domain containing) a node, or -1.
  int CountryOf(sim::NodeId node) const;
  // The HTTPD nearest to a user machine (its country's access point).
  GdnHttpd* NearestHttpd(sim::NodeId user);
  sim::Endpoint ResolverEndpointFor(sim::NodeId node) const;

  std::unique_ptr<Browser> MakeBrowser(sim::NodeId user);

  // Drains all pending simulator events.
  void Run() { engine_.Run(); }

  // ---- Synchronous conveniences (each drains the simulator) ----

  // Publishes a package through the moderator tool: scenario = master at
  // countries[master], secondaries at the other listed countries, with
  // `maintainers` (see AddMaintainerMachine) attached to the scenario.
  Result<gls::ObjectId> PublishPackage(const std::string& globe_name,
                                       const std::map<std::string, Bytes>& files,
                                       gls::ProtocolId protocol, size_t master_country,
                                       std::vector<size_t> replica_countries = {},
                                       const std::string& description = "",
                                       std::vector<sec::PrincipalId> maintainers = {});

  // A user downloads one file over HTTP via their nearest GDN-HTTPD.
  Result<Bytes> DownloadFile(sim::NodeId user, const std::string& globe_name,
                             const std::string& file_path);

  // A user fetches the package listing HTML.
  Result<std::string> FetchListing(sim::NodeId user, const std::string& globe_name);

  // True if `node` hosts any GDN service (and thus holds a GDN-host credential).
  bool IsGdnHost(sim::NodeId node) const { return gdn_hosts_.count(node) > 0; }

  // Virtual-time duration of the last DownloadFile / FetchListing, measured from
  // request to response arrival.
  sim::SimTime last_op_duration() const { return last_op_duration_; }

  // ---- Attribute-based search (paper 8 future work) ----
  // The search index is itself a master/slave DSO with a replica on every country's
  // GOS; HTTPDs answer /search from their nearest replica.
  const gls::ObjectId& search_oid() const { return search_oid_; }
  // Adds/updates a package's entry (PublishPackage calls this automatically when a
  // description is supplied).
  Status RegisterInSearchIndex(const std::string& globe_name,
                               const std::string& description);
  Status UnregisterFromSearchIndex(const std::string& globe_name);
  // A user searches over HTTP via their nearest HTTPD; returns the result HTML.
  Result<std::string> SearchViaHttp(sim::NodeId user, const std::string& query);

  // ---- Adaptive per-object replication (ROADMAP item 4; paper §3.1) ----
  // Turns on the online replication controller: before every evaluation the
  // world aggregates each GOS's access telemetry into one global registry
  // (reads served by secondaries count, not just what the master sees), runs
  // the ctl cost model, and executes winning migrations live through the
  // GOSes — remove stale secondaries, SwitchProtocol at the master, create
  // secondaries under the new policy. Regions are country indices. Already-
  // published master replicas are tracked immediately; later PublishPackage
  // calls track automatically. The search index stays on its static policy.
  //
  // With `start_timer`, evaluation self-schedules every
  // config.evaluate_interval; the timer keeps the simulator queue non-empty,
  // so drive time with RunUntil (like fail-over leases). Without it, call
  // EvaluateAdaptiveNow() at your own cadence.
  ctl::ReplicationController* EnableAdaptiveReplication(
      ctl::ControllerConfig config = {}, bool start_timer = false);
  // One aggregate-and-evaluate pass; no-op before EnableAdaptiveReplication.
  void EvaluateAdaptiveNow();
  ctl::ReplicationController* controller() { return controller_.get(); }
  ctl::MetricsRegistry* world_metrics() { return world_metrics_.get(); }

  // The world's ctl::PolicyActuator implementation (public for tests; normal
  // use is through the controller). Aborts on the first failing step so the
  // controller keeps the old policy and retries a later tick.
  void ExecuteMigration(const gls::ObjectId& oid,
                        const ctl::PolicyDecision& decision,
                        std::function<void(Status)> done);

  // ---- Maintainer role (paper §2 future work) ----
  // Turns `node` into a maintainer machine: registers a kMaintainer principal,
  // installs its credential and admits it to mutual authentication with GDN hosts.
  // Returns the principal id to list in a ReplicationScenario. Secure worlds only.
  sec::PrincipalId AddMaintainerMachine(const std::string& name, sim::NodeId node);

 private:
  void SetupSecurity();
  void CredentialHost(sim::NodeId node, const std::string& name);

  GdnWorldConfig config_;
  sim::UniformWorld world_;
  sim::Simulator engine_;
  sec::KeyRegistry registry_;
  std::unique_ptr<sim::Network> network_;
  std::unique_ptr<sim::PlainTransport> plain_transport_;
  std::unique_ptr<sec::SecureTransport> secure_transport_;
  sim::Transport* transport_ = nullptr;

  dso::ImplementationRepository repository_;
  std::set<sim::NodeId> gdn_hosts_;
  // Non-host machines admitted to mutual authentication (maintainer machines).
  std::set<sim::NodeId> mutual_nodes_;
  std::unique_ptr<gls::GlsDeployment> gls_;

  dns::TsigKeyTable tsig_keys_;
  std::unique_ptr<dns::AuthoritativeServer> dns_primary_;
  std::vector<std::unique_ptr<dns::AuthoritativeServer>> dns_secondaries_;
  std::unique_ptr<dns::GnsNamingAuthority> naming_authority_;

  std::vector<Country> countries_;
  std::vector<std::unique_ptr<dns::CachingResolver>> resolvers_;
  std::vector<std::unique_ptr<gos::ObjectServer>> goses_;
  std::vector<std::unique_ptr<GdnHttpd>> httpds_;

  sim::NodeId moderator_host_ = sim::kNoNode;
  std::unique_ptr<ModeratorTool> moderator_;
  sim::SimTime last_op_duration_ = 0;

  gls::ObjectId search_oid_;
  std::unique_ptr<dso::RuntimeSystem> search_admin_runtime_;
  std::unique_ptr<SearchProxy> search_admin_;

  std::unique_ptr<ctl::MetricsRegistry> world_metrics_;
  std::unique_ptr<ctl::PolicyActuator> actuator_;
  std::unique_ptr<ctl::ReplicationController> controller_;
  sim::SimTime adaptive_interval_ = 0;

  void SetupSearchIndex();
  void ScheduleAdaptiveTick();
};

}  // namespace globe::gdn

#endif  // SRC_GDN_WORLD_H_
