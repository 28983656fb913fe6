// StandaloneGdnNode: one GDN machine assembled over any transport backend.
//
// Where GdnWorld builds the paper's whole planet inside the simulator, this
// builds the stack a single real deployment runs: a GLS directory subnode, the
// DNS primary + GNS naming authority, a caching resolver, one Globe Object
// Server with its colocated GDN-enabled HTTPD, and a moderator tool — all
// talking through one sim::Transport. Handed a net::SocketTransport it is a
// real server process (the `globe_node` example serves packages to curl);
// handed a sim::PlainTransport it is a deterministic single-node test world.
//
// Backend-agnostic by construction: this header pulls in the transport seam
// only, never sim::Simulator or sim::Network.

#ifndef SRC_GDN_STANDALONE_H_
#define SRC_GDN_STANDALONE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

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

struct StandaloneNodeOptions {
  std::string zone = "gdn.cs.vu.nl";
  HttpdOptions httpd;
  dns::NamingAuthorityOptions naming_authority;
};

class StandaloneGdnNode {
 public:
  // Drives the transport's backend until `done` returns true (or the backend's
  // own notion of a drain when `done` is null — e.g. settle the naming flush).
  // Returns the final done() (true for a null done). The sim backend runs the
  // simulator; the socket backend polls its event loop under a wall-clock cap.
  using Pump = std::function<bool(const std::function<bool()>& done)>;

  // `on_node_created` fires for every logical NodeId the stack occupies, before
  // any traffic flows towards it — the socket backend calls Listen() there so
  // each logical node gets a real TCP listener and a loopback route.
  StandaloneGdnNode(sim::Transport* transport, StandaloneNodeOptions options = {},
                    std::function<void(sim::NodeId)> on_node_created = nullptr);

  sim::NodeId httpd_node() const { return gos_host_; }
  GdnHttpd* httpd() { return httpd_.get(); }
  gos::ObjectServer* gos() { return gos_.get(); }
  ModeratorTool* moderator() { return moderator_.get(); }
  dns::CachingResolver* resolver() { return resolver_.get(); }
  dns::GnsNamingAuthority* naming_authority() { return naming_authority_.get(); }
  gls::GlsDeployment& gls() { return *gls_; }
  const StandaloneNodeOptions& options() const { return options_; }

  // Publishes a package through the moderator tool (single replica on this
  // node's GOS) and flushes the naming batch so HTTP GETs resolve immediately.
  Result<gls::ObjectId> PublishPackage(const std::string& globe_name,
                                       const std::map<std::string, Bytes>& files,
                                       const Pump& pump);

 private:
  sim::NodeId AddHost(const std::string& name,
                      const std::function<void(sim::NodeId)>& on_node_created);

  StandaloneNodeOptions options_;
  sim::Transport* transport_;
  sim::Topology topology_;
  sim::DomainId domain_ = sim::kNoDomain;
  sec::KeyRegistry registry_;
  dso::ImplementationRepository repository_;

  std::unique_ptr<gls::GlsDeployment> gls_;
  dns::TsigKeyTable tsig_keys_;
  std::unique_ptr<dns::AuthoritativeServer> dns_primary_;
  std::unique_ptr<dns::GnsNamingAuthority> naming_authority_;
  std::unique_ptr<dns::CachingResolver> resolver_;
  sim::NodeId gos_host_ = sim::kNoNode;
  std::unique_ptr<gos::ObjectServer> gos_;
  std::unique_ptr<GdnHttpd> httpd_;
  sim::NodeId moderator_host_ = sim::kNoNode;
  std::unique_ptr<ModeratorTool> moderator_;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_STANDALONE_H_
