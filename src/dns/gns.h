// The Globe Name Service (GNS): symbolic object names -> object identifiers.
//
// Paper §5: Globe object names map one-to-one to DNS names whose TXT record holds the
// encoded object identifier. "/nl/vu/cs/globe/somePackage" becomes
// "somepackage.globe.cs.vu.nl". The GDN uses one leaf zone (the "GDN Zone") so users
// see names like /apps/graphics/Gimp with the zone suffix hidden.
//
// Components:
//   - GlobeNameToDnsName / DnsNameToGlobeName: the name mapping.
//   - GnsNamingAuthority: "the daemon that sends DNS UPDATE messages to the name
//     servers responsible for the GDN Zone, in response to add and remove requests
//     from clients" (§4). It enforces that only moderators may change the zone (§6.1
//     requirement 3), batches updates to keep the update rate low (§5), and signs
//     every UPDATE with its TSIG key (§6.3).
//   - GnsClient: run-time-system routines to add, resolve and delete object names.
//
// RPC methods (port sim::kPortGnsAuthority):
//   gns.add    : string globe_name, string oid_hex -> empty
//   gns.remove : string globe_name -> empty
//   gns.flush  : empty -> empty (forces the pending batch out; used by tools/tests)

#ifndef SRC_DNS_GNS_H_
#define SRC_DNS_GNS_H_

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/dns/resolver.h"
#include "src/sec/principal.h"
#include "src/sim/rpc.h"

namespace globe::dns {

// "/apps/graphics/Gimp" + zone "gdn.cs.vu.nl" -> "gimp.graphics.apps.gdn.cs.vu.nl".
// Fails on empty names or components violating DNS syntax (paper §5 lists these
// restrictions as a known disadvantage of the DNS-based GNS).
Result<std::string> GlobeNameToDnsName(std::string_view globe_name,
                                       std::string_view zone);

// Inverse mapping: "gimp.graphics.apps.gdn.cs.vu.nl" -> "/apps/graphics/Gimp" modulo
// case (DNS names are case-insensitive, so the original case is not recoverable).
Result<std::string> DnsNameToGlobeName(std::string_view dns_name, std::string_view zone);

// gns.add wire format.
struct GnsAddRequest {
  std::string globe_name;
  std::string oid_hex;

  static constexpr auto kWireFields =
      std::tuple(&GnsAddRequest::globe_name, &GnsAddRequest::oid_hex);
};

// gns.remove wire format.
struct GnsRemoveRequest {
  std::string globe_name;

  static constexpr auto kWireFields = std::tuple(&GnsRemoveRequest::globe_name);
};

// Name mutations queue zone updates at the authority; a duplicate delivery must
// not enqueue (and later apply) the update twice.
inline constexpr sim::TypedMethod<GnsAddRequest, sim::EmptyMessage> kGnsAdd{
    "gns.add", sim::kNonIdempotent};
inline constexpr sim::TypedMethod<GnsRemoveRequest, sim::EmptyMessage> kGnsRemove{
    "gns.remove", sim::kNonIdempotent};
inline constexpr sim::TypedMethod<sim::EmptyMessage, sim::EmptyMessage> kGnsFlush{
    "gns.flush"};

struct NamingAuthorityStats {
  uint64_t adds_accepted = 0;
  uint64_t removes_accepted = 0;
  uint64_t requests_denied = 0;
  uint64_t batches_sent = 0;
  uint64_t update_failures = 0;
};

struct NamingAuthorityOptions {
  // Require authenticated moderator callers (paper §6.1 requirement 3). Off in the
  // unsecured June-2000 first version.
  bool enforce_authorization = true;
  // Pending changes are flushed when the batch reaches this size...
  size_t max_batch = 16;
  // ...or when the oldest pending change has waited this long.
  sim::SimTime max_batch_delay = 5 * sim::kSecond;
  uint32_t record_ttl = 3600;  // seconds, for the TXT records it creates
};

class GnsNamingAuthority {
 public:
  GnsNamingAuthority(sim::Transport* transport, sim::NodeId node, std::string zone,
                     const sec::KeyRegistry* registry, std::string tsig_key_name,
                     Bytes tsig_key, sim::Endpoint primary_dns,
                     NamingAuthorityOptions options = {});

  sim::Endpoint endpoint() const { return server_.endpoint(); }
  const NamingAuthorityStats& stats() const { return stats_; }
  size_t pending() const { return pending_additions_.size() + pending_deletions_.size(); }

  // Sends any pending batch immediately.
  void Flush();

 private:
  Result<sim::EmptyMessage> HandleAdd(const sim::RpcContext& context,
                                      const GnsAddRequest& request);
  Result<sim::EmptyMessage> HandleRemove(const sim::RpcContext& context,
                                         const GnsRemoveRequest& request);
  Status CheckModerator(const sim::RpcContext& context) const;
  void MaybeScheduleFlush();

  sim::RpcServer server_;
  std::unique_ptr<sim::Channel> dns_client_;
  sim::Clock* clock_;
  std::string zone_;
  const sec::KeyRegistry* registry_;
  std::string tsig_key_name_;
  Bytes tsig_key_;
  sim::Endpoint primary_dns_;
  NamingAuthorityOptions options_;
  uint64_t next_sequence_ = 1;
  bool flush_scheduled_ = false;
  std::vector<ResourceRecord> pending_additions_;
  std::vector<UpdateRequest::Deletion> pending_deletions_;
  NamingAuthorityStats stats_;
};

// Client-side GNS routines used by moderator tools (add/remove) and by the binding
// machinery of the run-time system (resolve).
class GnsClient {
 public:
  GnsClient(sim::Transport* transport, sim::NodeId node, std::string zone,
            sim::Endpoint naming_authority, sim::Endpoint resolver);

  using DoneCallback = std::function<void(Status)>;
  using ResolveCallback = std::function<void(Result<std::string>)>;  // OID hex

  // Registers `globe_name` -> `oid_hex`. Requires the caller's node to hold a
  // moderator credential on the secure transport.
  void AddName(std::string_view globe_name, std::string_view oid_hex, DoneCallback done);

  void RemoveName(std::string_view globe_name, DoneCallback done);

  // Resolves a Globe object name to an OID through the local caching resolver.
  void Resolve(std::string_view globe_name, ResolveCallback done);

 private:
  sim::Channel rpc_;
  DnsClient dns_;
  std::string zone_;
  sim::Endpoint naming_authority_;
};

}  // namespace globe::dns

#endif  // SRC_DNS_GNS_H_
