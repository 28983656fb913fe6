// The time seam every Globe service is written against.
//
// Two backends implement it: sim::Simulator drives a virtual clock from a
// discrete event queue (deterministic, the default for tests and chaos runs),
// and net::EventLoop drives CLOCK_MONOTONIC from epoll (real sockets, real
// time). Channel deadlines, RetryPolicy backoff, dedup TTL eviction and
// RpcServer service-time modelling all schedule through this interface, which
// is what lets the same RPC stack run unmodified in both worlds.
//
// Timers are cancellable: ScheduleAfter returns a TimerId that CancelTimer
// erases. A cancelled timer never runs — the RPC layer relies on this to drop
// a call's deadline the moment its response lands.

#ifndef SRC_SIM_CLOCK_H_
#define SRC_SIM_CLOCK_H_

#include <cstdint>
#include <functional>

namespace globe::sim {

// Time in microseconds. Under the simulator this is virtual time since
// simulation start; under a socket backend it is monotonic wall time since the
// event loop was created. Code above the seam must only ever use it
// relatively (durations, deadlines) — absolute values mean different things
// per backend.
using SimTime = uint64_t;

constexpr SimTime kMicrosecond = 1;
constexpr SimTime kMillisecond = 1000;
constexpr SimTime kSecond = 1000 * 1000;

inline double ToMillis(SimTime t) { return static_cast<double>(t) / 1000.0; }
inline double ToSeconds(SimTime t) { return static_cast<double>(t) / 1e6; }

// Narrow timer-scheduling interface. Callbacks touching one node's state never
// run concurrently: net::EventLoop and a one-shard sim::Simulator run every
// callback on the thread driving the clock, and a multi-shard Simulator runs
// each shard's callbacks on one thread at a time.
class Clock {
 public:
  // Handle to a scheduled timer; kNoTimer is never a live timer.
  using TimerId = uint64_t;
  static constexpr TimerId kNoTimer = 0;

  virtual ~Clock() = default;

  virtual SimTime Now() const = 0;

  // Schedules fn to run once, `delay` microseconds from Now(). Timers due at
  // the same instant run in scheduling order (stable).
  virtual TimerId ScheduleAfter(SimTime delay, std::function<void()> fn) = 0;

  // Erases a pending timer: it will never run. Returns false if the timer
  // already fired, was already cancelled, or never existed.
  virtual bool CancelTimer(TimerId id) = 0;
};

}  // namespace globe::sim

#endif  // SRC_SIM_CLOCK_H_
