#include "src/dns/gns.h"

#include <algorithm>

#include "src/dns/name.h"
#include "src/util/log.h"
#include "src/util/strings.h"

namespace globe::dns {

Result<std::string> GlobeNameToDnsName(std::string_view globe_name,
                                       std::string_view zone) {
  std::vector<std::string> parts = SplitSkipEmpty(globe_name, '/');
  if (parts.empty()) {
    return InvalidArgument("empty Globe object name");
  }
  std::reverse(parts.begin(), parts.end());
  std::string dns_name = Join(parts, ".") + "." + std::string(zone);
  return CanonicalName(dns_name);
}

Result<std::string> DnsNameToGlobeName(std::string_view dns_name, std::string_view zone) {
  ASSIGN_OR_RETURN(std::string canonical, CanonicalName(dns_name));
  // Build via += rather than `"." + rvalue` — the latter trips GCC 12's
  // -Wrestrict false positive (PR105329) in string::insert under -O3.
  std::string zone_suffix = ".";
  zone_suffix += AsciiToLower(zone);
  if (!EndsWith(canonical, zone_suffix)) {
    return InvalidArgument("DNS name " + canonical + " not in zone " + std::string(zone));
  }
  std::string local = canonical.substr(0, canonical.size() - zone_suffix.size());
  std::vector<std::string> parts = SplitSkipEmpty(local, '.');
  if (parts.empty()) {
    return InvalidArgument("no object labels in DNS name " + canonical);
  }
  std::reverse(parts.begin(), parts.end());
  std::string globe_name = "/";
  globe_name += Join(parts, "/");
  return globe_name;
}

GnsNamingAuthority::GnsNamingAuthority(sim::Transport* transport, sim::NodeId node,
                                       std::string zone, const sec::KeyRegistry* registry,
                                       std::string tsig_key_name, Bytes tsig_key,
                                       sim::Endpoint primary_dns,
                                       NamingAuthorityOptions options)
    : server_(transport, node, sim::kPortGnsAuthority),
      dns_client_(std::make_unique<sim::Channel>(transport, node)),
      clock_(transport->clock()),
      zone_(std::move(zone)),
      registry_(registry),
      tsig_key_name_(std::move(tsig_key_name)),
      tsig_key_(std::move(tsig_key)),
      primary_dns_(primary_dns),
      options_(options) {
  kGnsAdd.Register(&server_,
                   [this](const sim::RpcContext& ctx, const GnsAddRequest& request) {
                     return HandleAdd(ctx, request);
                   });
  kGnsRemove.Register(&server_, [this](const sim::RpcContext& ctx,
                                       const GnsRemoveRequest& request) {
    return HandleRemove(ctx, request);
  });
  kGnsFlush.Register(&server_,
                     [this](const sim::RpcContext&,
                            const sim::EmptyMessage&) -> Result<sim::EmptyMessage> {
                       Flush();
                       return sim::EmptyMessage{};
                     });
}

Status GnsNamingAuthority::CheckModerator(const sim::RpcContext& context) const {
  // Paper §6.1 requirement 3: "A GDN Naming Authority should accept only updates from
  // moderator tools operated by official GDN moderators." The secure transport gives
  // us the authenticated peer; the registry gives its role.
  static constexpr sec::Role kModerators[] = {sec::Role::kModerator,
                                              sec::Role::kAdministrator};
  return options_.enforce_authorization
             ? sec::CheckRole(registry_, context, kModerators)
             : OkStatus();
}

Result<sim::EmptyMessage> GnsNamingAuthority::HandleAdd(const sim::RpcContext& context,
                                                        const GnsAddRequest& request) {
  if (Status s = CheckModerator(context); !s.ok()) {
    ++stats_.requests_denied;
    return s;
  }
  ASSIGN_OR_RETURN(std::string dns_name, GlobeNameToDnsName(request.globe_name, zone_));

  pending_additions_.push_back(
      ResourceRecord{dns_name, RrType::kTxt, options_.record_ttl, request.oid_hex});
  ++stats_.adds_accepted;
  MaybeScheduleFlush();
  return sim::EmptyMessage{};
}

Result<sim::EmptyMessage> GnsNamingAuthority::HandleRemove(
    const sim::RpcContext& context, const GnsRemoveRequest& request) {
  if (Status s = CheckModerator(context); !s.ok()) {
    ++stats_.requests_denied;
    return s;
  }
  ASSIGN_OR_RETURN(std::string dns_name, GlobeNameToDnsName(request.globe_name, zone_));

  pending_deletions_.push_back(UpdateRequest::Deletion{dns_name, RrType::kTxt, true});
  ++stats_.removes_accepted;
  MaybeScheduleFlush();
  return sim::EmptyMessage{};
}

void GnsNamingAuthority::MaybeScheduleFlush() {
  if (pending() >= options_.max_batch) {
    Flush();
    return;
  }
  if (flush_scheduled_) {
    return;
  }
  flush_scheduled_ = true;
  clock_->ScheduleAfter(options_.max_batch_delay, [this] {
    flush_scheduled_ = false;
    Flush();
  });
}

void GnsNamingAuthority::Flush() {
  if (pending_additions_.empty() && pending_deletions_.empty()) {
    return;
  }
  UpdateRequest update;
  update.zone = zone_;
  update.additions = std::move(pending_additions_);
  update.deletions = std::move(pending_deletions_);
  pending_additions_.clear();
  pending_deletions_.clear();
  update.key_name = tsig_key_name_;
  update.sequence = next_sequence_++;
  TsigSign(&update, tsig_key_);

  ++stats_.batches_sent;
  kDnsUpdate.Call(dns_client_.get(), primary_dns_, update,
                  [this](Result<sim::EmptyMessage> result) {
                    if (!result.ok()) {
                      ++stats_.update_failures;
                      GLOG_WARN << "GNS zone update failed: " << result.status();
                    }
                  });
}

GnsClient::GnsClient(sim::Transport* transport, sim::NodeId node, std::string zone,
                     sim::Endpoint naming_authority, sim::Endpoint resolver)
    : rpc_(transport, node),
      dns_(transport, node, resolver),
      zone_(std::move(zone)),
      naming_authority_(naming_authority) {}

void GnsClient::AddName(std::string_view globe_name, std::string_view oid_hex,
                        DoneCallback done) {
  kGnsAdd.Call(&rpc_, naming_authority_,
               GnsAddRequest{std::string(globe_name), std::string(oid_hex)},
               [done = std::move(done)](Result<sim::EmptyMessage> r) {
                 done(r.ok() ? OkStatus() : r.status());
               },
               sim::WriteCallOptions());
}

void GnsClient::RemoveName(std::string_view globe_name, DoneCallback done) {
  kGnsRemove.Call(&rpc_, naming_authority_, GnsRemoveRequest{std::string(globe_name)},
                  [done = std::move(done)](Result<sim::EmptyMessage> r) {
                    done(r.ok() ? OkStatus() : r.status());
                  },
                  sim::WriteCallOptions());
}

void GnsClient::Resolve(std::string_view globe_name, ResolveCallback done) {
  auto dns_name = GlobeNameToDnsName(globe_name, zone_);
  if (!dns_name.ok()) {
    done(dns_name.status());
    return;
  }
  dns_.Resolve(*dns_name, RrType::kTxt,
               [done = std::move(done), name = *dns_name](Result<QueryResponse> result) {
                 if (!result.ok()) {
                   done(result.status());
                   return;
                 }
                 if (result->rcode == Rcode::kNxDomain || result->answers.empty()) {
                   done(NotFound("no such object name: " + name));
                   return;
                 }
                 done(result->answers.front().data);
               });
}

}  // namespace globe::dns
