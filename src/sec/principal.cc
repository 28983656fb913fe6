#include "src/sec/principal.h"

#include <algorithm>

#include "src/sim/rpc.h"

namespace globe::sec {

std::string_view RoleName(Role role) {
  switch (role) {
    case Role::kUser:
      return "user";
    case Role::kModerator:
      return "moderator";
    case Role::kAdministrator:
      return "administrator";
    case Role::kMaintainer:
      return "maintainer";
    case Role::kGdnHost:
      return "gdn-host";
  }
  return "?";
}

KeyRegistry::KeyRegistry(uint64_t seed) : rng_(seed) {}

Credential KeyRegistry::Register(std::string name, Role role) {
  PrincipalId id = next_id_++;
  Bytes key = rng_.RandomBytes(32);
  principals_[id] = Principal{id, std::move(name), role};
  keys_[id] = key;
  return Credential{id, std::move(key)};
}

bool KeyRegistry::Verify(const Credential& credential) const {
  auto it = keys_.find(credential.id);
  if (it == keys_.end()) {
    return false;
  }
  return ConstantTimeEqual(it->second, credential.key);
}

Result<Principal> KeyRegistry::Find(PrincipalId id) const {
  auto it = principals_.find(id);
  if (it == principals_.end()) {
    return NotFound("unknown principal " + std::to_string(id));
  }
  return it->second;
}

Result<Role> KeyRegistry::RoleOf(PrincipalId id) const {
  ASSIGN_OR_RETURN(Principal p, Find(id));
  return p.role;
}

Result<Bytes> KeyRegistry::KeyOf(PrincipalId id) const {
  auto it = keys_.find(id);
  if (it == keys_.end()) {
    return NotFound("no key for principal " + std::to_string(id));
  }
  return it->second;
}

Status CheckRole(const KeyRegistry* registry, const sim::RpcContext& context,
                 std::span<const Role> allowed) {
  if (registry == nullptr) {
    return Internal("authorization enforced but no key registry configured");
  }
  if (context.peer_principal == kAnonymous || !context.integrity_protected) {
    return PermissionDenied("request requires an authenticated channel");
  }
  auto role = registry->RoleOf(context.peer_principal);
  if (!role.ok()) {
    return PermissionDenied("unknown principal");
  }
  if (std::find(allowed.begin(), allowed.end(), *role) == allowed.end()) {
    return PermissionDenied("role " + std::string(RoleName(*role)) +
                            " is not authorized for this request");
  }
  return OkStatus();
}

}  // namespace globe::sec
