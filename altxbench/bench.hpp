// Shared pieces of the altx benchmark: options, clocks, the seeded block
// sequence, outcome checking, and the metric sink every workload and layer
// probe writes into.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/stats.hpp"
#include "obs/history.hpp"
#include "posix/predictor.hpp"
#include "posix/race.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace altxbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string sabotage;  // "" or the name of the check to break on purpose
};

/// CLOCK_MONOTONIC in ns: the same clock in every process of the machine,
/// so a child's stamp and the parent's read can be subtracted.
inline std::uint64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline double ms_between(std::uint64_t t0, std::uint64_t t1) {
  return t1 > t0 ? static_cast<double>(t1 - t0) / 1e6 : 0.0;
}

/// splitmix64: the seeded generator behind every block sequence.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Exactly one marked block in every group of `period` consecutive blocks,
/// at a seeded position inside the group — the share is exact in every
/// window, only the placement depends on the seed.
class Marker {
 public:
  Marker(std::uint64_t seed, std::uint64_t period)
      : rng_(seed), period_(period) {}
  bool next() {
    if (i_ % period_ == 0) pos_ = rng_.below(period_);
    return (i_++ % period_) == pos_;
  }

 private:
  Rng rng_;
  std::uint64_t period_;
  std::uint64_t i_ = 0;
  std::uint64_t pos_ = 0;
};

/// Counts blocks checked and blocks whose outcome was wrong or unexpected,
/// keeping the first few messages for the report.
class Checker {
 public:
  void attempt() { ++attempted_; }
  void fail(const std::string& what) {
    ++wrong_;
    if (messages_.size() < 5) messages_.push_back(what);
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t wrong() const { return wrong_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t wrong_ = 0;
  std::vector<std::string> messages_;
};

/// name -> value, unit, sample count. Printed as one JSON object.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0) {
    rows_[name] = Row{value, unit, samples};
  }
  /// p-th percentile of `s` (0 with n=0 when empty).
  void pct(const std::string& name, const altx::Summary& s, double p,
           const std::string& unit) {
    set(name, s.empty() ? 0.0 : s.percentile(p), unit, s.count());
  }
  void mean(const std::string& name, const altx::Summary& s,
            const std::string& unit) {
    set(name, s.empty() ? 0.0 : s.mean(), unit, s.count());
  }
  void print_json(std::FILE* out) const;

 private:
  struct Row {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::map<std::string, Row> rows_;
};

/// Outcome of one timed window of blocks: each block's latency and kind.
struct Window {
  struct Block {
    double ms;  // call -> returned
    bool fail;  // an all-fail block (FAIL expected)
  };
  std::vector<Block> blocks;
  std::uint64_t t0_ns = mono_ns();
  std::uint64_t t1_ns = 0;

  /// Reserves room for `seconds` of blocks up front: a vector that doubles
  /// mid-window holds both buffers at once, and the process's peak RSS
  /// would then follow the throughput.
  explicit Window(double seconds = 0) {
    constexpr double kMaxBlocksPerSecond = 50'000;
    blocks.reserve(static_cast<std::size_t>(seconds * kMaxBlocksPerSecond));
  }
  /// Bytes of the block log itself, resident once written.
  [[nodiscard]] std::size_t log_bytes() const {
    return blocks.size() * sizeof(Block);
  }

  void add(double ms, bool fail = false) {
    blocks.push_back({ms, fail});
  }
  void open() { t0_ns = mono_ns(); }
  void close() { t1_ns = mono_ns(); }
  [[nodiscard]] double elapsed_s() const {
    return static_cast<double>(t1_ns - t0_ns) / 1e9;
  }
  /// Latencies of winning (fail = false) or all-fail blocks.
  [[nodiscard]] altx::Summary latencies(bool fail) const {
    altx::Summary s;
    for (const Block& b : blocks) {
      if (b.fail == fail) s.add(b.ms);
    }
    return s;
  }
};

/// An in-process altxd on its own thread plus one client connection — the
/// daemon_pipelined workload's system, and the server probe's.
class DaemonRig {
 public:
  /// Starts the server (zygote fork, worker pre-warm) and pings it once.
  explicit DaemonRig(const std::string& socket_path);
  ~DaemonRig();  // graceful stop; every worker and arm is reaped

  DaemonRig(const DaemonRig&) = delete;
  DaemonRig& operator=(const DaemonRig&) = delete;

  altx::server::Client& client() { return *client_; }
  altx::server::Server& server() { return *server_; }

 private:
  std::unique_ptr<altx::server::Server> server_;
  std::thread runner_;
  std::unique_ptr<altx::server::Client> client_;
};

/// A warmed history store (installed as the process-wide one, which
/// race<T> records into) and a planner over it — the E19 warm shape.
class PredictorRig {
 public:
  PredictorRig();
  ~PredictorRig();  // uninstalls the store

  PredictorRig(const PredictorRig&) = delete;
  PredictorRig& operator=(const PredictorRig&) = delete;

  altx::obs::HistoryStore& store() { return *store_; }
  const altx::posix::SpeculationPlanner& planner() const { return *planner_; }
  static constexpr std::uint64_t kSite = 0xa17b'e19;

 private:
  altx::obs::HistoryStore* store_;
  std::unique_ptr<altx::posix::SpeculationPlanner> planner_;
};

/// Echo arms for one daemon job: `echo` with the payload, and a `sleep_ms`
/// 1 loser.
altx::server::JobSpec echo_job(const altx::Bytes& payload);

/// One E19-shaped race over the rig: 3 spinning arms (2/20/20 ms); arm k
/// returns token + k - 1. `report` may be null.
std::optional<altx::posix::RaceResult<int>> predicted_race(
    const PredictorRig& rig, int token, altx::posix::RaceReport* report);

/// One workload: a set-up that can be repeated, and a closed loop of blocks.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the timed window; the benchmark times it.
  virtual void setup() = 0;
  /// Undoes setup(): stops every process the workload started and reaps
  /// it, so set-up can be timed more than once per run.
  virtual void teardown() = 0;
  /// Runs blocks in a closed loop until `seconds` pass or `max_blocks`
  /// blocks completed, checking every outcome. Appends each block to `into`
  /// (reserved by the caller, so the log does not allocate mid-window) and
  /// sets its t0_ns/t1_ns to this call's start and end.
  virtual void run(Window& into, double seconds, std::uint64_t max_blocks) = 0;

  /// What the layer probes may borrow (null: the probe builds its own).
  virtual altx::posix::AltHeap* arena() { return nullptr; }
  virtual PredictorRig* predictor() { return nullptr; }
  virtual DaemonRig* daemon() { return nullptr; }

  Checker& checker() { return checker_; }

 protected:
  Checker checker_;
};

std::unique_ptr<Workload> make_workload(const Options& opt);

/// The per-layer probes (layers.cpp). Each is timed by the benchmark around
/// public calls into src/posix, src/server and src/obs, on the workload's
/// own arena, store or daemon when it has one.
void probe_alt_group(const Options& opt, Metrics& m, Checker& check);
void probe_alt_heap(const Options& opt, Workload& w, Metrics& m);
void probe_predictor(const Options& opt, Workload& w, Metrics& m);
void probe_server(const Options& opt, Workload& w, Metrics& m);
void probe_governor(Metrics& m, Checker& check);

/// Socket path for a daemon, relative to the working directory (the
/// checkout), short enough for sun_path wherever the checkout lives.
std::string socket_path(const char* tag);

/// Shared workload parameters the probes reuse.
inline constexpr std::size_t kHeapPages = 4096;  // 16 MiB arena
inline constexpr std::size_t kBulkPages = 2048;  // bulk winner writes
inline constexpr int kDaemonWorkers = 2;
inline constexpr int kDaemonWindow = 4;  // jobs in flight

}  // namespace altxbench
