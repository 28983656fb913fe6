// The moderator tool (paper §4, §6.1): the program a GDN moderator uses to add,
// update and delete package DSOs.
//
// Creating a package follows the paper's procedure exactly:
//   1. The moderator defines the replication scenario: which protocol, and which
//      Globe Object Servers host replicas.
//   2. The tool sends "create first replica" to one GOS in the scenario; that GOS
//      constructs the local representative and registers a contact address in the
//      GLS, which allocates the object identifier.
//   3. The other GOSs get "bind to DSO <OID>, create replica" commands.
//   4. The tool registers a symbolic name for the OID with the GNS Naming Authority.
//
// The tool keeps a local catalog of the packages it created (name -> OID and
// scenario) so update and removal know every replica location — GLS lookups
// deliberately return only the *nearest* replica.

#ifndef SRC_GDN_MODERATOR_H_
#define SRC_GDN_MODERATOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/dns/gns.h"
#include "src/dso/runtime.h"
#include "src/gdn/package.h"

namespace globe::gdn {

// "How (using what replication protocol) and where (which machines should host
// replicas)" a package DSO is replicated (paper §3.1).
struct ReplicationScenario {
  gls::ProtocolId protocol = dso::kProtoMasterSlave;
  sim::Endpoint first_gos;                  // receives "create first replica"
  std::vector<sim::Endpoint> replica_goses; // receive "bind + create replica"
  gls::ReplicaRole secondary_role = gls::ReplicaRole::kSlave;
  // Principals allowed to manage this package's contents besides moderators —
  // the GDN maintainer role (paper §2 future work).
  std::vector<sec::PrincipalId> maintainers;
};

struct ModeratorStats {
  uint64_t packages_created = 0;
  uint64_t packages_removed = 0;
  uint64_t files_added = 0;
  uint64_t failures = 0;
};

class ModeratorTool {
 public:
  ModeratorTool(sim::Transport* transport, sim::NodeId node, std::string zone,
                sim::Endpoint naming_authority, sim::Endpoint resolver,
                gls::DirectoryRef leaf_directory,
                const dso::ImplementationRepository* repository);

  using OidCallback = std::function<void(Result<gls::ObjectId>)>;
  using DoneCallback = std::function<void(Status)>;
  using BindCallback = dso::RuntimeSystem::BindCallback;

  // Steps 1-4 above. `done` fires once the package exists, is replicated per the
  // scenario and is named in the GNS.
  void CreatePackage(std::string globe_name, ReplicationScenario scenario,
                     OidCallback done);

  // Binds to the package and adds/updates a file.
  void AddFile(std::string_view globe_name, std::string_view path, Bytes content,
               DoneCallback done);
  void SetDescription(std::string_view globe_name, std::string_view text,
                      DoneCallback done);

  // Removes every replica listed in the catalog, then the GNS name.
  void RemovePackage(std::string_view globe_name, DoneCallback done);

  // Binds to a package for arbitrary use.
  void OpenPackage(std::string_view globe_name, BindCallback done);

  const ModeratorStats& stats() const { return stats_; }

  struct CatalogEntry {
    gls::ObjectId oid;
    ReplicationScenario scenario;
  };
  const std::map<std::string, CatalogEntry, std::less<>>& catalog() const {
    return catalog_;
  }

 private:
  void CreateSecondaries(const gls::ObjectId& oid, ReplicationScenario scenario,
                         std::string globe_name, OidCallback done);
  void RegisterName(const gls::ObjectId& oid, const std::string& globe_name,
                    OidCallback done);

  std::unique_ptr<sim::Channel> rpc_;
  dns::GnsClient gns_;
  dso::RuntimeSystem runtime_;
  std::map<std::string, CatalogEntry, std::less<>> catalog_;
  ModeratorStats stats_;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_MODERATOR_H_
