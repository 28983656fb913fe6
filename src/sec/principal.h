// Principals, roles and the key registry.
//
// The GDN divides its user community into users, moderators and administrators, with
// maintainers planned (paper §2), and its machines into trusted "GDN hosts" and
// untrusted user machines (§6.2). A Principal models one such identity.
//
// Real Globe planned X.509-style certificates under TLS. Here the trust anchor is a
// KeyRegistry: a table of (principal -> secret key, role) playing the role of the CA.
// An entity proves an identity by holding the key the registry lists for it; the
// HMAC-based "signatures" this enables have the same authorization semantics as
// certificate verification.

#ifndef SRC_SEC_PRINCIPAL_H_
#define SRC_SEC_PRINCIPAL_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "src/util/bytes.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace globe::sim {
struct RpcContext;
}  // namespace globe::sim

namespace globe::sec {

using PrincipalId = uint64_t;
constexpr PrincipalId kAnonymous = 0;

enum class Role : uint8_t {
  kUser = 0,           // may retrieve packages only
  kModerator = 1,      // may create/update/remove packages
  kAdministrator = 2,  // complete control; hands out moderator privileges
  kMaintainer = 3,     // may manage the contents of specific packages (future work §2)
  kGdnHost = 4,        // a trusted machine: GOS, GLS node, GDN-HTTPD, naming authority
};

std::string_view RoleName(Role role);

struct Principal {
  PrincipalId id = kAnonymous;
  std::string name;
  Role role = Role::kUser;
};

// What an entity actually holds: its claimed identity plus the secret that should
// match the registry. An attacker can fabricate the id but not the key.
struct Credential {
  PrincipalId id = kAnonymous;
  Bytes key;
};

class KeyRegistry {
 public:
  explicit KeyRegistry(uint64_t seed = 0x6c0be5ec);

  // Registers a new principal and returns its credential (id + fresh secret key).
  Credential Register(std::string name, Role role);

  // CA-style verification: does this credential hold the key the registry lists?
  bool Verify(const Credential& credential) const;

  Result<Principal> Find(PrincipalId id) const;
  Result<Role> RoleOf(PrincipalId id) const;
  Result<Bytes> KeyOf(PrincipalId id) const;

  size_t size() const { return principals_.size(); }

 private:
  Rng rng_;
  PrincipalId next_id_ = 1;
  std::map<PrincipalId, Principal> principals_;
  std::map<PrincipalId, Bytes> keys_;
};

// The §6.1 admission check every guarded service runs (GLS registrations, GOS
// and naming-authority commands, replica write paths): the peer must be
// authenticated over an integrity-protected channel, known to `registry`, and
// hold one of the `allowed` roles. Refuses every request when no registry is
// configured.
Status CheckRole(const KeyRegistry* registry, const sim::RpcContext& context,
                 std::span<const Role> allowed);

}  // namespace globe::sec

#endif  // SRC_SEC_PRINCIPAL_H_
