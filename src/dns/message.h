// DNS message types: QUERY (RFC 1034), dynamic UPDATE (RFC 2136) and TSIG
// authentication for updates (RFC 2845 in spirit).
//
// The paper's GNS Naming Authority "sends DNS UPDATE messages to the name servers
// responsible for the GDN Zone" (§5), protected by "BIND's TSIG security feature"
// (§6.3). These are the messages it sends.

#ifndef SRC_DNS_MESSAGE_H_
#define SRC_DNS_MESSAGE_H_

#include <string>
#include <tuple>
#include <vector>

#include "src/dns/record.h"
#include "src/sim/rpc.h"
#include "src/util/bytes.h"
#include "src/util/status.h"

namespace globe::dns {

enum class Rcode : uint8_t {
  kNoError = 0,
  kServFail = 2,
  kNxDomain = 3,
  kNotImplemented = 4,
  kRefused = 5,
  kNotAuth = 9,
};

std::string_view RcodeName(Rcode rcode);

struct Question {
  std::string name;
  RrType type = RrType::kTxt;

  static constexpr auto kWireFields = std::tuple(&Question::name, &Question::type);
};

struct QueryRequest {
  Question question;

  static constexpr auto kWireFields = std::tuple(&QueryRequest::question);
};

struct QueryResponse {
  Rcode rcode = Rcode::kNoError;
  bool authoritative = false;
  bool from_cache = false;
  std::vector<ResourceRecord> answers;
  // For NXDOMAIN / empty answers: how long a resolver may cache the absence
  // (the zone's SOA minimum, RFC 2308).
  uint32_t negative_ttl = 0;

  static constexpr auto kWireFields =
      std::tuple(&QueryResponse::rcode, &QueryResponse::authoritative,
                 &QueryResponse::from_cache, &QueryResponse::answers,
                 &QueryResponse::negative_ttl);
};

struct UpdateRequest {
  struct Deletion {
    std::string name;
    RrType type = RrType::kTxt;
    bool whole_name = false;  // delete all RRs at the name, regardless of type

    bool operator==(const Deletion&) const = default;

    static constexpr auto kWireFields =
        std::tuple(&Deletion::name, &Deletion::type, &Deletion::whole_name);
  };

  std::string zone;
  std::vector<ResourceRecord> additions;
  std::vector<Deletion> deletions;

  // TSIG: shared-key authentication with a per-key monotonic sequence number in
  // place of RFC 2845's wall-clock fudge window (the simulator's clock is virtual).
  std::string key_name;
  uint64_t sequence = 0;
  Bytes mac;

  // The TSIG MAC covers the encoding of every field but the MAC itself.
  static constexpr auto kSignedFields =
      std::tuple(&UpdateRequest::zone, &UpdateRequest::additions,
                 &UpdateRequest::deletions, &UpdateRequest::key_name,
                 &UpdateRequest::sequence);
  static constexpr auto kWireFields =
      std::tuple_cat(kSignedFields, std::tuple(&UpdateRequest::mac));

  Bytes SignedPortion() const;
};

// Computes and attaches the TSIG MAC.
void TsigSign(UpdateRequest* update, ByteSpan key);

// Verifies the MAC. Does not check the sequence number — the server does that
// against its per-key high-water mark.
bool TsigVerify(const UpdateRequest& update, ByteSpan key);

// A full zone transfer (AXFR push from primary to secondaries), TSIG-protected the
// same way updates are.
struct ZoneTransfer {
  Bytes zone_bytes;  // Zone::Serialize output
  std::string key_name;
  uint64_t sequence = 0;
  Bytes mac;

  static constexpr auto kSignedFields = std::tuple(
      &ZoneTransfer::zone_bytes, &ZoneTransfer::key_name, &ZoneTransfer::sequence);
  static constexpr auto kWireFields =
      std::tuple_cat(kSignedFields, std::tuple(&ZoneTransfer::mac));

  Bytes SignedPortion() const;
};

void TsigSign(ZoneTransfer* transfer, ByteSpan key);
bool TsigVerify(const ZoneTransfer& transfer, ByteSpan key);

// Typed method descriptors shared by servers, resolvers and clients.
//   dns.query   : authoritative lookup (port sim::kPortDns)
//   dns.resolve : recursive lookup at a caching resolver (same port)
//   dns.update  : TSIG-authenticated dynamic update, primaries only
//   dns.axfr    : TSIG-authenticated full zone push, secondaries only
inline constexpr sim::TypedMethod<QueryRequest, QueryResponse> kDnsQuery{"dns.query"};
inline constexpr sim::TypedMethod<QueryRequest, QueryResponse> kDnsResolve{
    "dns.resolve"};
inline constexpr sim::TypedMethod<UpdateRequest, sim::EmptyMessage> kDnsUpdate{
    "dns.update"};
inline constexpr sim::TypedMethod<ZoneTransfer, sim::EmptyMessage> kDnsAxfr{
    "dns.axfr"};

}  // namespace globe::dns

#endif  // SRC_DNS_MESSAGE_H_
