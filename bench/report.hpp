// Machine-readable benchmark reports.
//
// Every bench that wants tracked numbers writes a BENCH_<name>.json file next
// to its human-readable table, so CI (or a later session) can diff runs
// without scraping stdout. Layout:
//
//   {
//     "bench": "e13_supervision",
//     "meta": {"schema": 3, "git_sha": "4680c09", "host": "ci-runner-3",
//              "cpus": 4, "kernel": "6.8.0-1015-azure",
//              "build_type": "Release"},
//     "rows": [
//       {"name": "supervised",
//        "params": {"crash_rate": 0.1},
//        "metrics": {"success": 118},
//        "latency_ms": {"count": 120, "mean": 9.1, "p50": 8.7, "p95": 14.2,
//                       "min": 6.0, "max": 31.9}}
//     ]
//   }
//
// The output directory defaults to the working directory; set ALTX_BENCH_OUT
// to redirect (CI points it at an artifacts dir). Keys and names come from
// bench code, never user input, so escaping handles only quotes/backslashes.
#pragma once

#include <sys/utsname.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace altx::bench {

/// BENCH_<name>.json, honoring ALTX_BENCH_OUT.
inline std::string report_path(const std::string& name) {
  std::string dir = ".";
  if (const char* env = std::getenv("ALTX_BENCH_OUT"); env && *env) dir = env;
  return dir + "/BENCH_" + name + ".json";
}

/// Bump when the report layout changes shape (schema 2 added "meta",
/// schema 3 the host's CPU count, kernel release and build type).
inline constexpr int kReportSchema = 3;

/// The CMake build type the bench was compiled as (bench/CMakeLists.txt).
#ifndef ALTX_BUILD_TYPE
#define ALTX_BUILD_TYPE "unknown"
#endif

/// The commit the bench binary was run against: ALTX_GIT_SHA when CI
/// exports it (detached checkouts, worktrees), else asking git directly,
/// else "unknown". Without this stamp two BENCH files from different
/// commits diff as if they were the same build.
inline std::string report_git_sha() {
  if (const char* env = std::getenv("ALTX_GIT_SHA"); env && *env) return env;
  std::string sha;
  if (std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) {
      for (const char* c = buf; *c != '\0'; ++c) {
        if (*c == '\n' || *c == '\r') break;
        sha += *c;
      }
    }
    ::pclose(p);
  }
  return sha.empty() ? "unknown" : sha;
}

inline std::string report_host() {
  char buf[256] = {};
  if (::gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf[0] != '\0' ? buf : "unknown";
}

inline std::string report_kernel() {
  utsname u{};
  return ::uname(&u) == 0 ? u.release : "unknown";
}

class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  class Row {
   public:
    explicit Row(std::string name) : name_(std::move(name)) {}

    Row& param(const std::string& key, const std::string& value) {
      params_.push_back({key, quote(value)});
      return *this;
    }
    Row& param(const std::string& key, double value) {
      params_.push_back({key, num(value)});
      return *this;
    }
    Row& metric(const std::string& key, double value) {
      metrics_.push_back({key, num(value)});
      return *this;
    }
    /// Full latency distribution under "latency_<unit>".
    Row& latency(const Summary& s, const std::string& unit = "ms") {
      std::ostringstream o;
      o << "{\"count\":" << s.count() << ",\"mean\":" << num(s.mean())
        << ",\"p50\":" << num(s.median()) << ",\"p95\":"
        << num(s.percentile(95)) << ",\"min\":" << num(s.min())
        << ",\"max\":" << num(s.max()) << "}";
      latency_ = {"latency_" + unit, o.str()};
      return *this;
    }

   private:
    friend class Report;

    std::string name_;
    std::vector<std::pair<std::string, std::string>> params_;
    std::vector<std::pair<std::string, std::string>> metrics_;
    std::pair<std::string, std::string> latency_;
  };

  Row& row(const std::string& name) {
    rows_.emplace_back(name);
    return rows_.back();
  }

  /// Writes BENCH_<name>.json. Returns the path, empty on I/O failure (a
  /// bench must still print its table even if the report can't be written).
  std::string write() const {
    const std::string path = report_path(name_);
    std::ofstream out(path);
    if (!out) return {};
    out << "{\"bench\":" << quote(name_);
    out << ",\"meta\":{\"schema\":" << kReportSchema
        << ",\"git_sha\":" << quote(report_git_sha())
        << ",\"host\":" << quote(report_host())
        << ",\"cpus\":" << ::sysconf(_SC_NPROCESSORS_ONLN)
        << ",\"kernel\":" << quote(report_kernel())
        << ",\"build_type\":" << quote(ALTX_BUILD_TYPE) << "}";
    out << ",\"rows\":[";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      if (i != 0) out << ",";
      out << "{\"name\":" << quote(r.name_);
      out << ",\"params\":{";
      for (std::size_t j = 0; j < r.params_.size(); ++j) {
        if (j != 0) out << ",";
        out << quote(r.params_[j].first) << ":" << r.params_[j].second;
      }
      out << "},\"metrics\":{";
      for (std::size_t j = 0; j < r.metrics_.size(); ++j) {
        if (j != 0) out << ",";
        out << quote(r.metrics_[j].first) << ":" << r.metrics_[j].second;
      }
      out << "}";
      if (!r.latency_.first.empty()) {
        out << "," << quote(r.latency_.first) << ":" << r.latency_.second;
      }
      out << "}";
    }
    out << "]}\n";
    return out ? path : std::string{};
  }

 private:
  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    q += '"';
    return q;
  }

  static std::string num(double v) {
    std::ostringstream o;
    o << v;
    const std::string s = o.str();
    // JSON has no inf/nan; an empty Summary's min() is such a sentinel.
    if (s.find_first_not_of("0123456789+-.e") != std::string::npos) {
      return "null";
    }
    return s;
  }

  std::string name_;
  std::deque<Row> rows_;  // deque: row() hands out stable references
};

}  // namespace altx::bench
