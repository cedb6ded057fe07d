#include "obs/trace.hpp"

#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "common/error.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/ring.hpp"

namespace altx::obs {

namespace detail {
bool g_enabled = false;
}  // namespace detail

namespace {

// The ring is leaked deliberately: children may still touch it inside
// _exit-bound code paths while the parent unwinds static destructors, and a
// single mapping for the process lifetime is exactly what post-mortem
// reconstruction wants.
TraceRing* g_ring = nullptr;
std::uint32_t g_attempt = 0;  // inherited by children through fork
std::uint32_t g_node_id = 0;  // ALTX_NODE_ID; inherited through fork
std::uint64_t g_trace_id = 0;  // ambient cross-process trace id; fork-inherited
pid_t g_creator = -1;
bool g_atexit_hooked = false;  // export_at_exit registered exactly once

// glibc stopped caching getpid(), and under a container's seccomp filter
// the syscall costs ~100 ns — real money when every emit stamps a pid on
// the fork critical path. Cache it ourselves; the pthread_atfork child
// handler (registered when the ring is created) refreshes it after every
// fork, which is the only way a process's pid changes.
pid_t g_self = -1;
void refresh_self_pid() { g_self = ::getpid(); }
pid_t self_pid() {
  if (g_self == -1) refresh_self_pid();
  return g_self;
}

// Export configuration captured from the environment at init.
std::string& trace_path() {
  static std::string path;
  return path;
}
std::string& trace_format() {
  static std::string format;
  return format;
}
std::string& metrics_path() {
  static std::string path;
  return path;
}

std::uint64_t wall_now_ns() {
  timespec ts;
  if (::clock_gettime(CLOCK_REALTIME, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Metrics snapshot schema: bumped when the JSON shape changes. v2 added the
// "meta" envelope (schema, pid, monotonic + wall clocks) so an external
// scraper can align snapshot series across processes and reboots.
constexpr int kMetricsSchema = 2;

bool write_metrics_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  const std::string body = MetricsRegistry::global().to_json();
  char meta[192];
  std::snprintf(meta, sizeof(meta),
                "{\"meta\": {\"schema\": %d, \"pid\": %d, "
                "\"mono_ns\": %llu, \"wall_ns\": %llu},",
                kMetricsSchema, static_cast<int>(::getpid()),
                static_cast<unsigned long long>(now_ns()),
                static_cast<unsigned long long>(wall_now_ns()));
  // Splice the envelope into the registry dump's outer object.
  out << meta << body.substr(1);
  return static_cast<bool>(out);
}

void export_at_exit() {
  // Only the ring's creator exports; a forked child that somehow reaches
  // exit() (instead of _exit) must not clobber the parent's file.
  if (::getpid() != g_creator) return;
  if (!trace_path().empty()) {
    try {
      export_to(trace_path(), trace_format());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "altx: trace export failed: %s\n", e.what());
    }
  }
  if (!metrics_path().empty() && !write_metrics_file(metrics_path())) {
    std::fprintf(stderr, "altx: cannot write metrics to %s\n",
                 metrics_path().c_str());
  }
}

/// The live-metrics exporter: rewrites the ALTX_METRICS file every interval
/// so an operator (or a `watch cat`) can see counters move while the
/// process runs. Snapshots are written to <path>.tmp and renamed, so a
/// concurrent reader never sees a half-written file. The thread is detached
/// and owns copies of its inputs; the final authoritative dump still comes
/// from export_at_exit.
void start_metrics_interval(std::string path, long long interval_ms) {
  std::thread([path = std::move(path), interval_ms] {
    const std::string tmp = path + ".tmp";
    while (true) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      if (!write_metrics_file(tmp)) continue;
      if (::rename(tmp.c_str(), path.c_str()) != 0) {
        (void)::unlink(tmp.c_str());
      }
    }
  }).detach();
}

/// Runs before main(): the ring must exist in the process that forks, and
/// reading the environment once here keeps every later emit branch-only.
struct EnvInit {
  EnvInit() {
    const char* trace = std::getenv("ALTX_TRACE");
    const char* ring_file = std::getenv("ALTX_TRACE_RING");
    const char* metrics = std::getenv("ALTX_METRICS");
    if (trace == nullptr && ring_file == nullptr && metrics == nullptr) return;
    std::size_t capacity = TraceRing::kDefaultCapacity;
    if (const char* buf = std::getenv("ALTX_TRACE_BUF")) {
      const long long n = std::atoll(buf);
      if (n > 0) capacity = static_cast<std::size_t>(n);
    }
    if (const char* node = std::getenv("ALTX_NODE_ID")) {
      g_node_id = static_cast<std::uint32_t>(std::atoll(node));
    }
    if (trace != nullptr) {
      trace_path() = trace;
      const char* format = std::getenv("ALTX_TRACE_FORMAT");
      trace_format() = format != nullptr ? format : "jsonl";
    }
    if (metrics != nullptr) metrics_path() = metrics;
    try {
      // File-backed when a live monitor wants to attach, anonymous otherwise.
      g_ring = ring_file != nullptr ? new TraceRing(ring_file, capacity)
                                    : new TraceRing(capacity);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "altx: cannot create trace ring: %s\n", e.what());
      return;
    }
    g_creator = ::getpid();
    refresh_self_pid();
    ::pthread_atfork(nullptr, nullptr, refresh_self_pid);
    std::atexit(export_at_exit);
    g_atexit_hooked = true;
    detail::g_enabled = true;
    if (metrics != nullptr) {
      if (const char* iv = std::getenv("ALTX_METRICS_INTERVAL_MS")) {
        const long long ms = std::atoll(iv);
        if (ms > 0) start_metrics_interval(metrics_path(), ms);
      }
    }
  }
};
EnvInit g_env_init;

}  // namespace

namespace detail {

void emit_slow(EventKind kind, std::uint32_t race_id, std::int16_t child_index,
               std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
  if (g_ring == nullptr) return;
  Record r;
  r.t_ns = now_ns();
  r.race_id = race_id;
  r.attempt = g_attempt;
  r.pid = static_cast<std::int32_t>(self_pid());
  r.node_id = g_node_id;
  r.child_index = child_index;
  r.kind = kind;
  r.a = a;
  r.b = b;
  r.c = c;
  r.trace_id = g_trace_id;
  g_ring->push(r);
}

}  // namespace detail

void emit_at(std::uint64_t t_ns, EventKind kind, std::uint32_t race_id,
             std::int16_t child_index, std::uint64_t a, std::uint64_t b,
             std::uint64_t c) noexcept {
  emit_at_node(t_ns, g_node_id, kind, race_id, child_index, a, b, c);
}

void emit_at_node(std::uint64_t t_ns, std::uint32_t node_id, EventKind kind,
                  std::uint32_t race_id, std::int16_t child_index,
                  std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
  if (!detail::g_enabled || g_ring == nullptr) [[likely]] return;
  Record r;
  r.t_ns = t_ns;
  r.race_id = race_id;
  r.attempt = g_attempt;
  r.pid = static_cast<std::int32_t>(self_pid());
  r.node_id = node_id;
  r.child_index = child_index;
  r.kind = kind;
  r.a = a;
  r.b = b;
  r.c = c;
  r.trace_id = g_trace_id;
  g_ring->push(r);
}

void emit_trace(std::uint64_t trace_id, EventKind kind, std::uint32_t race_id,
                std::int16_t child_index, std::uint64_t a, std::uint64_t b,
                std::uint64_t c) noexcept {
  emit_trace(trace_id, g_attempt, kind, race_id, child_index, a, b, c);
}

void emit_trace(std::uint64_t trace_id, std::uint32_t attempt, EventKind kind,
                std::uint32_t race_id, std::int16_t child_index,
                std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept {
  if (!detail::g_enabled || g_ring == nullptr) [[likely]] return;
  Record r;
  r.t_ns = now_ns();
  r.race_id = race_id;
  r.attempt = attempt;
  r.pid = static_cast<std::int32_t>(self_pid());
  r.node_id = g_node_id;
  r.child_index = child_index;
  r.kind = kind;
  r.a = a;
  r.b = b;
  r.c = c;
  r.trace_id = trace_id;
  g_ring->push(r);
}

std::uint32_t next_race_id() noexcept {
  if (!detail::g_enabled || g_ring == nullptr) [[likely]] return 0;
  return g_ring->next_race_id();
}

std::uint64_t now_ns() noexcept {
  timespec ts;
  if (::clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void set_attempt(std::uint32_t attempt) noexcept { g_attempt = attempt; }

std::uint32_t current_attempt() noexcept { return g_attempt; }

void set_node_id(std::uint32_t node_id) noexcept { g_node_id = node_id; }

std::uint32_t node_id() noexcept { return g_node_id; }

namespace {
std::uint32_t g_current_race = 0;  // child-side; set after fork
}  // namespace

void set_current_race(std::uint32_t race_id) noexcept {
  g_current_race = race_id;
}

std::uint32_t current_race() noexcept { return g_current_race; }

void set_current_trace(std::uint64_t trace_id) noexcept {
  g_trace_id = trace_id;
}

std::uint64_t current_trace() noexcept { return g_trace_id; }

std::uint64_t mint_trace_id() noexcept {
  // splitmix64 over (pid, clock, counter): probabilistically unique across
  // every client process that ever talks to one daemon, never 0, and cheap
  // enough to mint per job. Deliberately independent of the ring (which may
  // not exist — a dark client's jobs must still trace on the daemon side).
  static std::atomic<std::uint64_t> counter{0};
  std::uint64_t x = now_ns() ^
                    (static_cast<std::uint64_t>(self_pid()) << 32) ^
                    (counter.fetch_add(1, std::memory_order_relaxed) << 1);
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

void enable_for_test(std::size_t capacity) {
  if (g_ring == nullptr) {
    g_ring = new TraceRing(capacity);
    g_creator = ::getpid();
    refresh_self_pid();
    ::pthread_atfork(nullptr, nullptr, refresh_self_pid);
  }
  detail::g_enabled = true;
}

bool attach_ring_file(const std::string& path, std::size_t capacity) {
  if (g_ring != nullptr) return false;
  g_ring = new TraceRing(path, capacity);
  g_creator = ::getpid();
  refresh_self_pid();
  ::pthread_atfork(nullptr, nullptr, refresh_self_pid);
  detail::g_enabled = true;
  return true;
}

void set_export_on_exit(const std::string& path, const std::string& format) {
  trace_path() = path;
  trace_format() = format;
  // EnvInit registers export_at_exit whenever it builds a ring; only a
  // purely programmatic setup (no ALTX_* env at all) still needs the hook.
  if (!g_atexit_hooked) {
    std::atexit(export_at_exit);
    g_atexit_hooked = true;
  }
}

std::vector<Record> snapshot() {
  if (g_ring == nullptr) return {};
  return g_ring->snapshot();
}

std::uint64_t dropped() {
  return g_ring == nullptr ? 0 : g_ring->dropped();
}

void reset() {
  if (g_ring != nullptr) g_ring->reset();
  g_attempt = 0;
  g_trace_id = 0;
}

TraceRing* ring() noexcept { return g_ring; }

void export_to(const std::string& path, const std::string& format) {
  std::vector<Record> records = snapshot();
  // Claim order is per-process program order but interleaves arbitrarily
  // across processes; the timeline order is the timestamp order.
  std::stable_sort(records.begin(), records.end(),
                   [](const Record& x, const Record& y) {
                     return x.t_ns < y.t_ns;
                   });
  const std::uint64_t lost = dropped();
  if (lost > 0) {
    // The overflow marker: a reader (altx-trace, or any jsonl consumer)
    // must be able to tell a truncated trace from a complete one without
    // out-of-band knowledge, so the drop count rides in the file itself.
    Record overflow;
    overflow.t_ns = records.empty() ? 0 : records.back().t_ns;
    overflow.seq = records.empty() ? 0 : records.back().seq + 1;
    overflow.node_id = g_node_id;
    overflow.pid = static_cast<std::int32_t>(::getpid());
    overflow.kind = EventKind::kRingOverflow;
    overflow.a = lost;
    records.push_back(overflow);
    MetricsRegistry::global().counter("dropped_events").add(lost);
  }
  std::ofstream out(path);
  if (!out) throw SystemError("open trace file " + path, errno);
  write_trace(records, out, format);
  out.flush();
  if (!out) throw SystemError("write trace file " + path, EIO);
  if (lost > 0) {
    std::fprintf(stderr,
                 "altx: trace buffer overflow: %llu records dropped "
                 "(raise ALTX_TRACE_BUF)\n",
                 static_cast<unsigned long long>(lost));
  }
}

}  // namespace altx::obs
