// Shared helpers for the experiment benchmarks (see README.md, "Benchmarks").
//
// Each bench binary regenerates one table/figure: it builds a deterministic
// simulated world, runs the workload, and prints the rows the paper's evaluation
// would have contained. Latencies are virtual (simulated) time; "WAN bytes" are the
// network's per-level traffic counters at or above the country level.

#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/sim/clock.h"
#include "src/util/strings.h"

namespace globe::bench {

// Real (host) elapsed time, for the perf-facing benches: virtual time measures
// protocol cost, wall time measures the engine itself.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  void Reset() { start_ = std::chrono::steady_clock::now(); }
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Peak resident set size of this process in MiB (ru_maxrss is KiB on Linux).
inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Mirrors everything a bench binary prints (title, notes, tables) and writes it
// as BENCH_<name>.json on exit, so the perf trajectory can diff runs without
// scraping stdout. The output directory defaults to the working directory and
// can be overridden with GLOBE_BENCH_JSON_DIR (the CMake `bench` target points
// it at the repo root).
class JsonReport {
 public:
  static JsonReport& Get() {
    static JsonReport report;
    return report;
  }

  void Begin(const std::string& id, const std::string& what) {
    id_ = id;
    what_ = what;
  }

  size_t AddTable(const std::vector<std::string>& headers) {
    tables_.push_back(TableData{headers, {}});
    return tables_.size() - 1;
  }

  void AddRow(size_t table, const std::vector<std::string>& cells) {
    if (table < tables_.size()) tables_[table].rows.push_back(cells);
  }

  void AddNote(const std::string& text) { notes_.push_back(text); }

  ~JsonReport() {
    if (id_.empty()) return;
    const char* dir = std::getenv("GLOBE_BENCH_JSON_DIR");
    std::string path = std::string(dir != nullptr ? dir : ".") + "/BENCH_" +
                       FileKey() + ".json";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return;
    // Host-side cost of producing the report: every bench carries these two, so
    // the perf trajectory can watch engine wall time and memory, not just the
    // virtual-time tables.
    std::fprintf(out,
                 "{\n  \"id\": %s,\n  \"title\": %s,\n"
                 "  \"wall_seconds\": %.3f,\n  \"peak_rss_mb\": %.1f,\n"
                 "  \"notes\": [",
                 Quote(id_).c_str(), Quote(what_).c_str(), wall_.Seconds(),
                 PeakRssMb());
    for (size_t i = 0; i < notes_.size(); ++i) {
      std::fprintf(out, "%s\n    %s", i == 0 ? "" : ",", Quote(notes_[i]).c_str());
    }
    std::fprintf(out, "%s],\n  \"tables\": [", notes_.empty() ? "" : "\n  ");
    for (size_t t = 0; t < tables_.size(); ++t) {
      std::fprintf(out, "%s\n    {\"headers\": ", t == 0 ? "" : ",");
      WriteStringArray(out, tables_[t].headers);
      std::fprintf(out, ", \"rows\": [");
      for (size_t r = 0; r < tables_[t].rows.size(); ++r) {
        std::fprintf(out, "%s\n      ", r == 0 ? "" : ",");
        WriteStringArray(out, tables_[t].rows[r]);
      }
      std::fprintf(out, "%s]}", tables_[t].rows.empty() ? "" : "\n    ");
    }
    std::fprintf(out, "%s]\n}\n", tables_.empty() ? "" : "\n  ");
    std::fclose(out);
  }

 private:
  struct TableData {
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
  };

  // "E5 bench_binding" -> "binding"; otherwise the id with spaces flattened.
  std::string FileKey() const {
    for (const std::string& token : SplitSkipEmpty(id_, ' ')) {
      if (StartsWith(token, "bench_")) return token.substr(6);
    }
    std::string key = id_;
    for (char& c : key) {
      if (c == ' ' || c == '/') c = '_';
    }
    return key;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    out += '"';
    return out;
  }

  static void WriteStringArray(std::FILE* out, const std::vector<std::string>& v) {
    std::fprintf(out, "[");
    for (size_t i = 0; i < v.size(); ++i) {
      std::fprintf(out, "%s%s", i == 0 ? "" : ", ", Quote(v[i]).c_str());
    }
    std::fprintf(out, "]");
  }

  std::string id_;
  std::string what_;
  Stopwatch wall_;  // started when the bench first touches the report
  std::vector<std::string> notes_;
  std::vector<TableData> tables_;
};

inline void Title(const std::string& id, const std::string& what) {
  JsonReport::Get().Begin(id, what);
  std::printf("\n================================================================\n");
  std::printf("%s: %s\n", id.c_str(), what.c_str());
  std::printf("================================================================\n");
}

inline void Note(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list measure;
  va_copy(measure, args);
  int length = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  std::string text(length > 0 ? static_cast<size_t>(length) : 0, '\0');
  if (length > 0) {
    std::vsnprintf(text.data(), text.size() + 1, fmt, args);
  }
  va_end(args);
  JsonReport::Get().AddNote(text);
  std::printf("  %s\n", text.c_str());
}

// Fixed-width table output.
class Table {
 public:
  explicit Table(std::vector<std::string> headers, int column_width = 14)
      : num_columns_(headers.size()),
        width_(column_width),
        json_index_(JsonReport::Get().AddTable(headers)) {
    std::printf("\n");
    for (const auto& header : headers) {
      std::printf("%-*s", width_, header.c_str());
    }
    std::printf("\n");
    for (size_t i = 0; i < num_columns_ * static_cast<size_t>(width_); ++i) {
      std::printf("-");
    }
    std::printf("\n");
  }

  void Row(const std::vector<std::string>& cells) {
    JsonReport::Get().AddRow(json_index_, cells);
    for (const auto& cell : cells) {
      std::printf("%-*s", width_, cell.c_str());
    }
    std::printf("\n");
  }

 private:
  size_t num_columns_;
  int width_;
  size_t json_index_;
};

inline std::string Fmt(const char* fmt, ...) {
  char buf[128];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

inline std::string Ms(sim::SimTime t) { return Fmt("%.1f ms", sim::ToMillis(t)); }
inline std::string Ms(double us) { return Fmt("%.1f ms", us / 1000.0); }

}  // namespace globe::bench

#endif  // BENCH_BENCH_UTIL_H_
