// StandaloneGdnNode: the GDN's services in one domain, over any transport backend.
//
// Runs the services of src/gdn/services.h, unsecured like the paper's June-2000
// first version, on a private one-domain topology: one GLS directory subnode and
// one of each other service, each on its own logical node. Handed a
// net::SocketTransport it is a real server process (the `globe_node` example
// serves packages to curl). It cannot run over a sim::PlainTransport: a
// sim::Network routes only the nodes of the topology it was built on. To run
// these services in the simulator, build a GdnServices on a one-domain topology
// of your own (as tests/gdn_test.cc does).
//
// Backend-agnostic by construction: this header pulls in the transport seam
// only, never sim::Simulator or sim::Network.

#ifndef SRC_GDN_STANDALONE_H_
#define SRC_GDN_STANDALONE_H_

#include <functional>
#include <map>
#include <string>

#include "src/gdn/services.h"

namespace globe::gdn {

// Has no settings; the constructor still takes it so existing callers' `{}`
// compiles.
struct StandaloneNodeOptions {};

class StandaloneGdnNode {
 public:
  using Pump = GdnServices::Pump;

  // `on_node_created` fires for every logical NodeId the stack occupies, before
  // any traffic flows towards it — the socket backend calls Listen() there so
  // each logical node gets a real TCP listener and a loopback route.
  StandaloneGdnNode(sim::Transport* transport, StandaloneNodeOptions = {},
                    std::function<void(sim::NodeId)> on_node_created = nullptr)
      : services_(transport, &topology_, &registry_,
                  {topology_.AddDomain("standalone", sim::kNoDomain)}, {},
                  [on_node_created = std::move(on_node_created)](sim::NodeId node,
                                                                 std::string_view) {
                    if (on_node_created) {
                      on_node_created(node);
                    }
                  }) {}

  sim::NodeId httpd_node() { return services_.GosOf(0)->host(); }

  // Publishes a package with a single master/slave replica on this node's GOS.
  Result<gls::ObjectId> PublishPackage(const std::string& globe_name,
                                       const std::map<std::string, Bytes>& files,
                                       const Pump& pump) {
    return services_.PublishPackage(globe_name, files, dso::kProtoMasterSlave,
                                    /*master_country=*/0, {}, {}, pump);
  }

 private:
  sec::KeyRegistry registry_;
  sim::Topology topology_;
  GdnServices services_;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_STANDALONE_H_
