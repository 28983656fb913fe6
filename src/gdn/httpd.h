// GDN-enabled HTTPD (paper §4): the user's access point to the GDN.
//
// "We use URLs that have embedded in them the name of a package DSO. The GDN-HTTPD
// extracts this object name and binds to the DSO. The HTTPD then invokes the
// appropriate method(s) ... For example, it could call listContents() to obtain the
// list of files contained in the package, which is subsequently reformatted into
// HTML. ... If the URL designates a particular file in the package, the HTTPD calls
// the getFileContents() method and sends back the returned content."
//
// URL scheme:
//   GET /packages<globe-name>                  -> HTML listing of the package
//   GET /packages<globe-name>/files/<path>     -> raw file bytes
//   GET /search?q=<terms>                      -> HTML attribute-based search results
//   GET /                                      -> HTML front page
//
// "The local representative that is installed in the GDN-HTTPD during binding may
// act as a replica for the DSO, in which case downloading a software package is
// fast": with `bind_as_replica` set, the HTTPD joins the DSO as a cache or slave
// (protocol permitting) and registers itself in the GLS so nearby clients are routed
// to it. The same class, configured on a user machine, is the "GDN-enabled proxy
// server" of §4.

#ifndef SRC_GDN_HTTPD_H_
#define SRC_GDN_HTTPD_H_

#include <map>
#include <memory>
#include <string>

#include "src/dns/gns.h"
#include "src/dso/runtime.h"
#include "src/gdn/package.h"
#include "src/gdn/search.h"
#include "src/http/http.h"

namespace globe::gdn {

struct HttpdOptions {
  // Join DSOs as a replica (cache/slave per protocol), published in the GLS,
  // instead of a thin proxy.
  bool bind_as_replica = true;
};

struct HttpdStats {
  uint64_t requests = 0;
  uint64_t listings_served = 0;
  uint64_t files_served = 0;
  uint64_t bytes_served = 0;
  uint64_t errors = 0;
  uint64_t binds = 0;
  uint64_t bind_reuses = 0;
  // Bindings dropped and re-established after an invoke on them failed — the
  // bound representative was a stale incarnation (its object migrated to
  // another protocol, or its master moved).
  uint64_t rebinds = 0;
};

class GdnHttpd {
 public:
  GdnHttpd(sim::Transport* transport, sim::NodeId node, std::string zone,
           sim::Endpoint naming_authority, sim::Endpoint resolver,
           gls::DirectoryRef leaf_directory, const dso::ImplementationRepository* repository,
           HttpdOptions options = {});
  ~GdnHttpd();

  sim::NodeId node() const { return node_; }
  const HttpdStats& stats() const { return stats_; }
  size_t bound_objects() const { return bound_.size(); }

  // Enables the /search endpoint: the OID of the GDN's search-index DSO (paper 8's
  // planned attribute-based search). The HTTPD binds to it on first use.
  void SetSearchIndex(const gls::ObjectId& oid) { search_oid_ = oid; }

 private:
  void OnRequest(const sim::TransportDelivery& delivery);
  void ServeRequest(const http::HttpRequest& request, const sim::Endpoint& client);
  void Reply(const sim::Endpoint& client, const http::HttpResponse& response);

  // Binds (or reuses a binding) and hands the package to `use`. Single flight:
  // requests arriving while the package's bind is running wait for that bind.
  using UsePackage = std::function<void(Result<dso::BoundObject*>)>;
  void WithPackage(const std::string& globe_name, UsePackage use);

  // Drops a stale binding properly: the bound representative goes back through
  // RuntimeSystem::Unbind (protocol shutdown + GLS deregistration) instead of
  // being silently destroyed — a replica installed via bind_as_replica would
  // otherwise leak its GLS registration and keep routing clients to a retired
  // incarnation. The unbind is deferred one event because the drop runs on the
  // stale binding's own callback stack. `done` fires once the teardown finished:
  // a rebind issued earlier could resolve the stale registration itself.
  void DropBinding(const std::string& globe_name, std::function<void()> done);

  void ServeFrontPage(const sim::Endpoint& client);
  // `retried`: this request already dropped a stale binding and rebound once;
  // a second failure is served as an error instead of looping.
  void ServeListing(const std::string& globe_name, const sim::Endpoint& client,
                    bool retried = false);
  void ServeFile(const std::string& globe_name, const std::string& file_path,
                 const sim::Endpoint& client, bool retried = false);
  void ServeSearch(const std::string& query, const sim::Endpoint& client);

  sim::Transport* transport_;
  sim::NodeId node_;
  dns::GnsClient gns_;
  dso::RuntimeSystem runtime_;
  HttpdOptions options_;
  // One bound local representative per package name, reused across requests.
  std::map<std::string, std::unique_ptr<dso::BoundObject>> bound_;
  // Requests waiting on the bind in flight for a package name; the first one
  // started it. A second concurrent bind would overwrite bound_[name],
  // destroying the first binding and leaking its GLS registration.
  std::map<std::string, std::vector<UsePackage>> binds_in_flight_;
  gls::ObjectId search_oid_;
  std::unique_ptr<dso::BoundObject> search_index_;
  HttpdStats stats_;
};

// A minimal web browser / HTTP client for the simulated world. Each Fetch uses its
// own ephemeral port, mirroring HTTP/1.0's connection-per-request.
class Browser {
 public:
  Browser(sim::Transport* transport, sim::NodeId node);

  using FetchCallback = std::function<void(Result<http::HttpResponse>)>;
  void Fetch(sim::NodeId httpd_node, std::string_view target, FetchCallback done,
             sim::SimTime timeout = 60 * sim::kSecond);

  sim::NodeId node() const { return node_; }

 private:
  sim::Transport* transport_;
  sim::NodeId node_;
  std::shared_ptr<bool> alive_;
};

}  // namespace globe::gdn

#endif  // SRC_GDN_HTTPD_H_
