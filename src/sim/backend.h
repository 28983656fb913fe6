// Aggregation header for code that *instantiates* the simulation backend.
//
// Services compile against the seam alone (src/sim/transport.h, clock.h); only
// composition roots — gdn::GdnWorld, tests, benches — build the concrete
// Simulator/Topology/Network/PlainTransport stack, and they do it through this
// header. CI greps that nothing outside src/sim/ and src/net/ includes
// simulator.h or network.h directly, which is what keeps the seam honest.

#ifndef SRC_SIM_BACKEND_H_
#define SRC_SIM_BACKEND_H_

#include "src/sim/network.h"    // IWYU pragma: export
#include "src/sim/simulator.h"  // IWYU pragma: export
#include "src/sim/topology.h"   // IWYU pragma: export

#endif  // SRC_SIM_BACKEND_H_
