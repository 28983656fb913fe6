// Node addressing shared by every transport backend.
//
// A Globe host is a NodeId; a service on it is a (node, port) Endpoint. Under
// the simulated network node ids index into a sim::Topology; under the socket
// backend they are logical labels that the transport maps to real listening
// sockets. The well-known ports are fixed so both backends route the same
// frames to the same services.

#ifndef SRC_SIM_ENDPOINT_H_
#define SRC_SIM_ENDPOINT_H_

#include <cstdint>
#include <string>
#include <tuple>

namespace globe::sim {

using NodeId = uint32_t;

constexpr NodeId kNoNode = static_cast<NodeId>(-1);

// Well-known ports for the Globe services (arbitrary but fixed).
constexpr uint16_t kPortDns = 53;
constexpr uint16_t kPortHttp = 80;
constexpr uint16_t kPortGls = 700;
constexpr uint16_t kPortGos = 701;
constexpr uint16_t kPortGnsAuthority = 530;
constexpr uint16_t kPortClientBase = 40000;  // ephemeral ports for clients

struct Endpoint {
  NodeId node = kNoNode;
  uint16_t port = 0;

  static constexpr auto kWireFields = std::tuple(&Endpoint::node, &Endpoint::port);

  bool operator==(const Endpoint&) const = default;
  auto operator<=>(const Endpoint&) const = default;
};

inline std::string ToString(const Endpoint& ep) {
  return "node" + std::to_string(ep.node) + ":" + std::to_string(ep.port);
}

}  // namespace globe::sim

#endif  // SRC_SIM_ENDPOINT_H_
