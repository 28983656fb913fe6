// globe_benchmark: the GDN's end-to-end and per-layer benchmark.
//
//   globe_benchmark --seed=N [--workload=NAME] [--seconds=S] [--trace]
//                   [--scale=F] [--out=FILE]
//
// Runs the named workload (or all four, one after another), prints every
// metric by name with its unit, and writes the results file (default
// build-benchmark/benchmark_results.json): per workload
// {correct, attempted, failed, metrics{name: {value, unit}}, violations}.
// Exits 1 if any output was wrong (bad bytes, a wrong GLS address, an
// ephemeral-port wrap, a failed attribution check), 2 on a usage error.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <system_error>
#include <vector>

#include "benchmark/workloads.h"
#include "src/util/log.h"

namespace {

using globe::benchmark::RunOptions;
using globe::benchmark::WorkloadResult;

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"flash_crowd", globe::benchmark::RunFlashCrowd},
    {"update_churn", globe::benchmark::RunUpdateChurn},
    {"planet_lookup", globe::benchmark::RunPlanetLookup},
    {"socket_http", globe::benchmark::RunSocketHttp},
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool WriteResults(const std::string& path, const RunOptions& options,
                  const std::vector<WorkloadResult>& results) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  std::error_code ignored;
  if (!parent.empty()) {
    std::filesystem::create_directories(parent, ignored);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(out, "{\"seed\": %llu, \"trace\": %s, \"workloads\": {",
               static_cast<unsigned long long>(options.seed),
               options.trace ? "true" : "false");
  for (size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    std::fprintf(out, "%s\n  %s: {\"correct\": %s, \"attempted\": %llu, \"failed\": %llu,",
                 w == 0 ? "" : ",", JsonString(r.workload).c_str(),
                 r.correct ? "true" : "false", static_cast<unsigned long long>(r.attempted),
                 static_cast<unsigned long long>(r.failed));
    std::fprintf(out, "\n    \"metrics\": {");
    for (size_t m = 0; m < r.metrics.size(); ++m) {
      std::fprintf(out, "%s\n      %s: {\"value\": %.17g, \"unit\": %s}", m == 0 ? "" : ",",
                   JsonString(r.metrics[m].name).c_str(), r.metrics[m].value,
                   JsonString(r.metrics[m].unit).c_str());
    }
    std::fprintf(out, "},\n    \"violations\": [");
    for (size_t v = 0; v < r.violations.size(); ++v) {
      std::fprintf(out, "%s%s", v == 0 ? "" : ", ", JsonString(r.violations[v]).c_str());
    }
    std::fprintf(out, "]}");
  }
  std::fprintf(out, "\n}}\n");
  return std::fclose(out) == 0;
}

const char* FlagValue(const char* arg, const char* flag) {
  size_t n = std::strlen(flag);
  return std::strncmp(arg, flag, n) == 0 && arg[n] == '=' ? arg + n + 1 : nullptr;
}

int Usage() {
  std::fprintf(stderr,
               "usage: globe_benchmark --seed=N [--workload=NAME] [--seconds=S] "
               "[--trace] [--scale=F] [--out=FILE]\nworkloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string only;
  std::string out_path = "build-benchmark/benchmark_results.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = FlagValue(arg, "--seed")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = FlagValue(arg, "--workload")) {
      only = v;
    } else if (const char* v = FlagValue(arg, "--seconds")) {
      options.seconds = std::strtod(v, nullptr);
    } else if (const char* v = FlagValue(arg, "--scale")) {
      options.scale = std::strtod(v, nullptr);
    } else if (const char* v = FlagValue(arg, "--out")) {
      out_path = v;
    } else if (std::strcmp(arg, "--trace") == 0) {
      options.trace = true;
    } else {
      return Usage();
    }
  }
  if (options.seconds <= 0 || options.scale <= 0 || options.scale > 1) {
    return Usage();
  }
  // Library warnings (a dropped frame, a failed replica) still reach stderr;
  // info chatter does not.
  globe::SetLogLevel(globe::LogLevel::kWarn);
  // Fixed malloc thresholds: glibc otherwise raises its mmap threshold as
  // large blocks are freed, so a run's first few episodes ran slower than the
  // rest. Pinned, every episode of a run sees the same heap policy, and the
  // medians do not depend on the episode count.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  std::vector<WorkloadResult> results;
  bool matched = false;
  for (const Workload& w : kWorkloads) {
    if (!only.empty() && only != w.name) {
      continue;
    }
    matched = true;
    std::printf("== %s (%s, seed %llu)\n", w.name, options.trace ? "traced" : "untraced",
                static_cast<unsigned long long>(options.seed));
    std::fflush(stdout);
    results.push_back(w.run(options));
    const WorkloadResult& r = results.back();
    for (const auto& metric : r.metrics) {
      std::printf("  %-28s %16.6f %s\n", metric.name.c_str(), metric.value,
                  metric.unit.c_str());
    }
    std::printf("  correct=%s attempted=%llu failed=%llu\n", r.correct ? "yes" : "NO",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::fflush(stdout);
  }
  if (!matched) {
    return Usage();
  }
  if (!WriteResults(out_path, options, results)) {
    return 1;
  }
  for (const WorkloadResult& r : results) {
    if (!r.correct) {
      return 1;
    }
  }
  return 0;
}
