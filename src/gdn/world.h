// GdnWorld: the complete GDN deployment from the paper's Figure 3, in one object.
//
// Runs the GDN's services (see src/gdn/services.h) over one simulator run:
//   - a hierarchical Internet (continents > countries > sites) with user machines;
//     the countries are the domains one level above the sites;
//   - the services themselves: the Globe Location Service directory tree, the
//     DNS-based GNS, one Globe Object Server with a colocated GDN-enabled HTTPD
//     per country, and the moderator tool;
//   - optionally, the Figure-4 TLS channel policy: mutual authentication between GDN
//     hosts, server authentication towards user machines, and role-enforced
//     authorization at the GLS, GOS, Naming Authority and replica write paths;
//   - the search index (paper 8 future work) and the adaptive replication
//     controller.
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
#include "src/gdn/search.h"
#include "src/gdn/services.h"
#include "src/sec/secure_transport.h"
#include "src/sim/backend.h"  // GdnWorld is a composition root: it owns the sim stack

namespace globe::gdn {

struct GdnWorldConfig : GdnServicesOptions {
  // Topology: fanouts per level below the world root, then user hosts per leaf site.
  std::vector<int> fanouts = {2, 2, 2};
  int user_hosts_per_site = 2;

  // A secure world also runs Figure-4 TLS-style channels; this adds confidentiality
  // on top of authentication+integrity (the cost §6.3 questions).
  bool encrypt = false;
};

class GdnWorld {
 public:
  explicit GdnWorld(GdnWorldConfig config = {});

  sim::Simulator& simulator() { return engine_; }
  sim::Network& network() { return network_; }
  sim::Transport* transport() { return transport_; }
  const sim::Topology& topology() const { return world_.topology; }
  sec::SecureTransport* secure_transport() { return secure_transport_.get(); }
  const std::vector<sim::NodeId>& user_hosts() const { return world_.hosts; }
  GdnServices& services() { return services_; }

  // The services accessors that benchmark/ reads from the world.
  size_t num_countries() const { return services_.num_countries(); }
  ModeratorTool* moderator() { return services_.moderator(); }
  GdnHttpd* NearestHttpd(sim::NodeId user) { return services_.NearestHttpd(user); }

  std::unique_ptr<Browser> MakeBrowser(sim::NodeId user);

  // Drains all pending simulator events.
  void Run() { engine_.Run(); }

  // ---- Synchronous conveniences (each drains the simulator) ----

  // GdnServices::PublishPackage (`maintainers` come from AddMaintainerMachine),
  // then the description, registered in the search index, and adaptive tracking.
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

  // Virtual-time duration of the last DownloadFile / FetchListing / SearchViaHttp,
  // measured from request to response arrival.
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
  // The services' host hook: installs each host's credential.
  void CredentialHost(sim::NodeId node, std::string_view service);
  void SetupSecurity();
  void SetupSearchIndex();
  void ScheduleAdaptiveTick();
  // One GET from `user` through their nearest HTTPD, drained: the body of a 200
  // reply, else NotFound("HTTP <code>: <body>").
  Result<Bytes> Get(sim::NodeId user, const std::string& target);

  GdnWorldConfig config_;
  sim::UniformWorld world_;
  sim::Simulator engine_;
  sec::KeyRegistry registry_;
  sim::Network network_;
  sim::PlainTransport plain_transport_;
  std::unique_ptr<sec::SecureTransport> secure_transport_;
  sim::Transport* transport_;

  std::set<sim::NodeId> gdn_hosts_;
  // Non-host machines admitted to mutual authentication (maintainer machines).
  std::set<sim::NodeId> mutual_nodes_;
  GdnServices services_;
  sim::SimTime last_op_duration_ = 0;

  gls::ObjectId search_oid_;
  std::unique_ptr<dso::RuntimeSystem> search_admin_runtime_;
  std::unique_ptr<dso::BoundObject> search_admin_;

  std::unique_ptr<ctl::MetricsRegistry> world_metrics_;
  std::unique_ptr<ctl::PolicyActuator> actuator_;
  std::unique_ptr<ctl::ReplicationController> controller_;
  sim::SimTime adaptive_interval_ = 0;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_WORLD_H_
