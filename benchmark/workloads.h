// The benchmark's four workloads. Each builds its own worlds from the run's
// seed, verifies every output it receives, and returns every metric it
// measured: the end-to-end set on an untraced run, the per-layer set (plus
// the traced-run self-checks) when options.trace is set.

#ifndef BENCHMARK_WORKLOADS_H_
#define BENCHMARK_WORKLOADS_H_

#include "benchmark/harness.h"

namespace globe::benchmark {

WorkloadResult RunFlashCrowd(const RunOptions& options);
WorkloadResult RunUpdateChurn(const RunOptions& options);
WorkloadResult RunPlanetLookup(const RunOptions& options);
WorkloadResult RunSocketHttp(const RunOptions& options);

}  // namespace globe::benchmark

#endif  // BENCHMARK_WORKLOADS_H_
