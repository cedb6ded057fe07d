// The altxd client: submit alternative-block jobs to a speculation daemon.
//
// A Client owns one connection. submit()/wait() are the primitive pair —
// submit is pipelined (many jobs may be in flight per connection), wait
// demultiplexes results by job id, and both are thread-safe: whichever
// thread reaches wait() first becomes the socket reader and parks everyone
// else on a condition variable until their frame lands.
//
// server::race<T>() is the drop-in face: the same shape as posix::race<T>,
// but each alternative is a handler name + argument blob (a closure cannot
// cross a socket) and the fork happens in a pre-warmed daemon worker
// instead of here. A local call site redirects by filling
// RaceOptions::daemon_socket and naming its alternatives.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "posix/race.hpp"
#include "server/protocol.hpp"

namespace altx::server {

class Client {
 public:
  static Client connect_unix(const std::string& socket_path);
  static Client connect_tcp(const std::string& host, int port);

  ~Client();
  Client(Client&&) noexcept;
  Client& operator=(Client&&) noexcept;

  /// Ships a job; returns the id wait() redeems. Never blocks on the
  /// daemon — admission denials come back as a kDenied outcome. The
  /// three-argument form stamps a cross-process trace id (and the client's
  /// parent span id) into the frame header so every ring record the daemon
  /// side emits for this job correlates back to this call site;
  /// server::race<T> mints these automatically.
  std::uint64_t submit(const JobSpec& spec);
  std::uint64_t submit(const JobSpec& spec, std::uint64_t trace_id,
                       std::uint64_t span_id);

  /// Blocks until `job_id`'s outcome (result, denial, or cancel ack)
  /// arrives. timeout < 0 waits forever; expiry throws SystemError
  /// (ETIMEDOUT). A denial is an outcome, not an error: status kDenied with
  /// retry_after_ms filled.
  JobOutcome wait(std::uint64_t job_id,
                  std::chrono::milliseconds timeout = std::chrono::milliseconds(-1));

  /// Asks the daemon to cancel a queued or running job. The job still
  /// resolves through wait() — with kCanceled if the cancel won the race
  /// against completion.
  void cancel(std::uint64_t job_id);

  /// Daemon counters and gauges, one round trip.
  WireStats stats(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10'000));

  /// Liveness round trip (kPing/kPong).
  void ping(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(10'000));

  [[nodiscard]] int fd() const noexcept;

 private:
  struct State;
  explicit Client(std::unique_ptr<State> st);

  std::unique_ptr<State> st_;
};

/// One arm of a remote block: a handler registered in the daemon plus its
/// opaque argument blob (see server/registry.hpp for the contract).
struct RemoteAlt {
  std::string handler;
  Bytes args;
};

/// Extra remote-only detail a caller may want alongside the RaceResult.
struct RemoteRaceInfo {
  JobStatus status = JobStatus::kError;
  std::uint64_t queue_ns = 0;        // submit to the job's start
  std::uint64_t exec_ns = 0;         // worker race wall time
  std::uint32_t retry_after_ms = 0;  // kDenied backoff hint
  std::string error;
};

/// posix::race, executed by the daemon: nullopt when every guard failed,
/// the timeout expired, or admission was denied (info->status and
/// retry_after_ms distinguish the three). Daemon-side failures (unknown
/// handlers, worker death) throw SystemError — they are environmental, not
/// a FAIL verdict. Options honored remotely: timeout, site_id; heap != null
/// requests the worker's arena.
template <posix::RaceSerializable T>
std::optional<posix::RaceResult<T>> race(Client& client,
                                         const std::vector<RemoteAlt>& alts,
                                         const posix::RaceOptions& options = {},
                                         RemoteRaceInfo* info = nullptr) {
  ALTX_REQUIRE(!alts.empty(), "server::race: need at least one alternative");
  JobSpec spec;
  spec.timeout_ms = static_cast<std::uint32_t>(options.timeout.count());
  spec.site_id = options.site_id;
  if (options.heap != nullptr) {
    spec.heap_pages = static_cast<std::uint32_t>(options.heap->pages());
  }
  for (const RemoteAlt& a : alts) spec.arms.push_back({a.handler, a.args});

  // Cross-process tracing: the correlation id is minted here, at the
  // boundary where the block leaves this process, and rides the frame
  // header — so the daemon, its workers, and their speculative children
  // all stamp their ring records with it. The client-side kRaceBegin /
  // kRaceDecided pair records the submit→result wall in *this* process's
  // ring; altx-trace --stitch then tiles the daemon's queue and phase
  // spans under the same trace id.
  const std::uint64_t trace_id = obs::mint_trace_id();
  const std::uint64_t span_id = obs::mint_trace_id();
  const std::uint32_t cli_race = obs::next_race_id();
  obs::emit_trace(trace_id, obs::EventKind::kRaceBegin, cli_race, 0,
                  alts.size(), 1);

  const std::uint64_t id = client.submit(spec, trace_id, span_id);
  // The daemon enforces the job timeout in the worker; pad the client-side
  // wait so queueing cannot turn a slow daemon into a spurious ETIMEDOUT.
  const JobOutcome out =
      client.wait(id, options.timeout + std::chrono::milliseconds(30'000));

  if (info != nullptr) {
    info->status = out.status;
    info->queue_ns = out.queue_ns;
    info->exec_ns = out.exec_ns;
    info->retry_after_ms = out.retry_after_ms;
    info->error = out.error;
  }
  posix::WaitVerdict verdict;
  switch (out.status) {
    case JobStatus::kWon:
      verdict = posix::WaitVerdict::kWinner;
      break;
    case JobStatus::kAllFailed:
      verdict = posix::WaitVerdict::kAllFailed;
      break;
    case JobStatus::kTimeout:
      verdict = posix::WaitVerdict::kTimeout;
      break;
    default:
      verdict = posix::WaitVerdict::kUndecided;
      break;
  }
  obs::emit_trace(trace_id, obs::EventKind::kRaceDecided, cli_race, 0,
                  static_cast<std::uint64_t>(verdict), out.winner);
  if (options.report != nullptr) {
    posix::RaceReport& rep = *options.report;
    rep = {};
    rep.verdict = verdict;
  }
  if (out.status == JobStatus::kError) {
    throw SystemError("server::race: " + out.error, EIO);
  }
  if (out.status != JobStatus::kWon) return std::nullopt;
  posix::RaceResult<T> r;
  r.value = posix::race_decode<T>(out.value);
  r.winner = static_cast<int>(out.winner);
  return r;
}

/// Connect-per-call convenience for redirected call sites: requires
/// options.daemon_socket (see posix::RaceOptions).
template <posix::RaceSerializable T>
std::optional<posix::RaceResult<T>> race(const std::vector<RemoteAlt>& alts,
                                         const posix::RaceOptions& options,
                                         RemoteRaceInfo* info = nullptr) {
  ALTX_REQUIRE(!options.daemon_socket.empty(),
               "server::race: options.daemon_socket names the daemon");
  Client client = Client::connect_unix(options.daemon_socket);
  return race<T>(client, alts, options, info);
}

}  // namespace altx::server
