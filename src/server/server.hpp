// altxd: a long-lived speculation server.
//
// The daemon accepts declarative alternative-block jobs (server/protocol.hpp)
// over a Unix-domain — and optionally TCP — socket from many clients at
// once, runs each job inside a pre-warmed worker from the zygote pool
// (server/worker.hpp), and streams outcomes back. It is the system the
// library becomes when speculation must serve heavy traffic:
//
//   * admission is per client, layered on the SpeculationGovernor: each
//     client gets a running-job quota and a bounded queue; past the queue
//     cap the daemon answers with an explicit RETRY-AFTER denial instead of
//     buffering without bound, and workers drain the client queues
//     round-robin so one greedy client cannot starve the rest — an idle
//     worker first, then one more job queued ahead behind each running
//     one, so a worker never waits a round trip for its next job. A job
//     queued ahead that its worker has not started is withdrawn (on the
//     worker.hpp ClaimBoard) and sent to a worker that falls idle, or
//     answered at once when it is canceled;
//   * the governor's token pool is shared with every worker through the
//     zygote fork, so arm-level admission spans the whole daemon, and
//     reconcile_dead_holders() runs after every forced teardown so a
//     SIGKILLed cohort cannot leak tokens;
//   * graceful shutdown (request_stop, or SIGTERM in altxd) cancels queued
//     jobs, tears down every in-flight cohort — worker and arms, by process
//     group — and exits with no orphaned speculative children: the daemon
//     is a child subreaper, so even arms orphaned by a killed worker
//     reparent here and are reaped;
//   * with a trace ring attached (ALTX_TRACE_RING or obs::attach_ring_file)
//     every server event (kSrv*) and every worker-side race lands in one
//     file-backed ring: altx-top is the live ops console and altx-trace
//     --critical-path attributes daemon queue wait as the srv_queue phase.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "server/protocol.hpp"

namespace altx::posix {
class SpeculationGovernor;
}  // namespace altx::posix

namespace altx::server {

struct ServerConfig {
  /// Unix-domain listening socket (required; unlinked and rebound).
  std::string socket_path;

  /// TCP listener on 127.0.0.1: 0 = off, -1 = ephemeral (read the bound
  /// port back with Server::tcp_port()), else the port to bind.
  int tcp_port = 0;

  /// Pre-warmed worker pool size, and the daemon's running-job capacity: a
  /// worker runs one job at a time (the jobs_running gauge counts those)
  /// and holds at most one more queued ahead in its socket, which counts as
  /// queued until it starts.
  int workers = 4;

  /// Per-client admission: jobs on workers (running or queued ahead), and
  /// how many more may queue before submits are denied with RETRY-AFTER.
  int per_client_running = 8;
  int per_client_queue = 64;
  std::uint32_t retry_after_ms = 50;

  /// Worker arena pages for heap-carrying jobs (0 = no arenas).
  std::size_t heap_pages = 64;

  /// >0: build a SpeculationGovernor with this many arm tokens, shared with
  /// every worker. 0: workers resolve SpeculationGovernor::global().
  int gov_tokens = 0;

  /// Prometheus/OpenMetrics exposition endpoint: "" = off, "PORT" or
  /// "HOST:PORT" binds an HTTP listener there (port 0 = ephemeral — read it
  /// back with Server::metrics_port()). GET / or /metrics returns the
  /// daemon's counters, gauges, per-client job counters, and the latency
  /// histograms as cumulative buckets; served from the poll loop, no extra
  /// thread. Host defaults to 127.0.0.1.
  std::string metrics_addr;

  std::size_t max_clients = 256;
};

/// Daemon counters and gauges; also shipped to clients as WireStats.
using ServerStats = WireStats;

class Server {
 public:
  explicit Server(ServerConfig cfg);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the sockets, builds the governor, forks the zygote, and
  /// pre-warms the worker pool. Fork happens here — call before the
  /// embedding process grows, and register handlers first.
  void start();

  /// Serves until request_stop(). Runs the poll loop on the calling thread.
  void run();

  /// Asks run() to finish (graceful shutdown). Async-signal-safe: callable
  /// from a SIGTERM handler.
  void request_stop() noexcept;

  [[nodiscard]] ServerStats stats() const;

  /// The daemon's governor (nullptr when gov_tokens == 0 and no env
  /// governor exists).
  [[nodiscard]] posix::SpeculationGovernor* governor() const noexcept;

  /// The bound TCP port (0 when the TCP listener is off).
  [[nodiscard]] int tcp_port() const noexcept;

  /// The bound metrics-endpoint port (0 when metrics_addr is empty).
  [[nodiscard]] int metrics_port() const noexcept;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace altx::server
