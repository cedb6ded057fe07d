// The altxd wire protocol: length-prefixed frames carrying declarative
// alternative-block jobs.
//
// A closure cannot cross a socket, so a remote alternative block is shipped
// as data — Kwon's choice-conjunctive reading of an alternative block as a
// declarative unit: each arm names a handler registered in the daemon
// (server/registry.hpp) plus an opaque argument blob. The daemon runs the
// block with posix::race<Bytes> inside a pre-warmed worker and streams the
// outcome back.
//
// Frame layout (little-endian, 36-byte header + payload):
//
//   u32 magic       0x4a544c41 ("ALTJ")
//   u8  version     kProtoVersion
//   u8  type        FrameType
//   u16 flags       reserved (must round-trip)
//   u64 job_id      client-chosen, unique per connection
//   u32 payload_len bytes following the header (<= kMaxFramePayload)
//   u64 trace_id    v2: cross-process trace id (obs::Record::trace_id);
//                   minted at the client's race<T>() call, 0 = untraced
//   u64 span_id     v2: the client-side parent span for this job, so a
//                   future span-tree view can parent the daemon's spans
//
// Version history: v1 was the 20-byte header without the trace fields; v2
// (this version) appends them. The first 20 bytes are layout-identical, so
// a v2 decoder rejects a v1 peer deterministically at the version byte —
// mixed-version deployments fail loudly, not by misparsing.
//
// Both ends parse with the incremental FrameDecoder below: feed() whatever
// the socket produced, next() yields complete frames. The decoder enforces
// the magic, version, type range, and payload cap *before* buffering a
// frame's payload, so a malicious or corrupt peer cannot make the server
// allocate unbounded memory — it gets a ProtocolError and the connection
// is dropped. The same class is the fuzz target of
// tests/test_server_protocol.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"

namespace altx::server {

inline constexpr std::uint32_t kFrameMagic = 0x4a544c41;  // "ALTJ" in LE
inline constexpr std::uint8_t kProtoVersion = 2;  // v2: + trace_id, span_id
inline constexpr std::size_t kFrameHeaderBytes = 36;
inline constexpr std::size_t kMaxFramePayload = 16u << 20;  // 16 MiB

/// Caps on the decoded job payload, enforced by decode_job: a frame that
/// passes the transport caps can still describe an absurd job.
inline constexpr std::size_t kMaxArms = 64;
inline constexpr std::size_t kMaxHandlerName = 256;

/// A peer broke the framing or payload rules. Connection-fatal: the stream
/// position is unrecoverable after a bad header.
class ProtocolError : public UsageError {
 public:
  using UsageError::UsageError;
};

enum class FrameType : std::uint8_t {
  kHello = 1,       // client → server: str client name (optional pleasantry)
  kSubmit = 2,      // client → server: JobSpec payload
  kResult = 3,      // server → client: JobOutcome payload
  kDeny = 4,        // server → client: u32 retry-after ms, str reason
  kCancel = 5,      // client → server: empty (job named in the header)
  kStats = 6,       // client → server: empty
  kStatsReply = 7,  // server → client: WireStats payload
  kPing = 8,        // either direction: empty
  kPong = 9,        // reply to kPing: empty
};

[[nodiscard]] const char* to_string(FrameType type);

struct Frame {
  FrameType type = FrameType::kPing;
  std::uint16_t flags = 0;
  std::uint64_t job_id = 0;
  std::uint64_t trace_id = 0;  // cross-process correlation id (0 = untraced)
  std::uint64_t span_id = 0;   // client-side parent span of this job
  Bytes payload;
};

[[nodiscard]] Bytes encode_frame(const Frame& frame);

/// Incremental frame parser. feed() buffers raw socket bytes; next()
/// returns the following complete frame, nullopt when more bytes are
/// needed, and throws ProtocolError on malformed input (bad magic/version/
/// type, oversized payload). After a throw the stream is poisoned — drop
/// the connection.
class FrameDecoder {
 public:
  void feed(const void* data, std::size_t n);
  std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t buffered() const noexcept;

 private:
  Bytes buf_;
  std::size_t consumed_ = 0;  // prefix of buf_ already returned as frames
};

/// One arm of a remote alternative block: a handler registered in the
/// daemon plus its opaque argument blob.
struct JobArm {
  std::string handler;
  Bytes args;
};

/// kSubmit payload: the declarative alternative block.
struct JobSpec {
  std::uint32_t timeout_ms = 10'000;
  std::uint64_t site_id = 0;     // per-arm history identity (0 = none)
  std::uint32_t heap_pages = 0;  // >0: run with the worker's AltHeap arena
  /// Daemon to worker only: the submit's CLOCK_MONOTONIC time (obs::now_ns,
  /// one clock for every process on the host), stamped at assignment. The
  /// worker reports the span from it to the job's start as
  /// JobOutcome::queue_ns, so a job queued ahead behind a running one
  /// counts its time in the worker's socket as queue wait, not rpc.
  std::uint64_t queue_ns = 0;
  /// Daemon to worker only: nonzero on a job sent ahead to a busy worker,
  /// which starts it only if it takes this claim (server::ClaimBoard).
  std::uint64_t claim = 0;
  std::vector<JobArm> arms;
};

[[nodiscard]] Bytes encode_job(const JobSpec& spec);
[[nodiscard]] JobSpec decode_job(const Bytes& payload);

enum class JobStatus : std::uint8_t {
  kWon = 0,        // an arm committed; `value` is its result
  kAllFailed = 1,  // every guard failed
  kTimeout = 2,    // the block's timeout expired in the worker
  kCanceled = 3,   // kCancel, disconnect teardown, or daemon shutdown
  kDenied = 4,     // admission refused; retry_after_ms says when to retry
  kError = 5,      // daemon-side failure (unknown handlers, worker death)
};

[[nodiscard]] const char* to_string(JobStatus status);

/// kResult payload (kDeny is folded into the same struct client-side).
struct JobOutcome {
  JobStatus status = JobStatus::kError;
  std::uint32_t winner = 0;          // 1-based arm index when kWon
  Bytes value;
  std::uint64_t queue_ns = 0;        // submit to the job's start
  std::uint64_t exec_ns = 0;         // worker race wall time
  std::uint32_t retry_after_ms = 0;  // kDenied backoff hint
  std::string error;                 // kDenied / kError detail, or the
                                     //   kAllFailed / kTimeout fate census
};

[[nodiscard]] Bytes encode_outcome(const JobOutcome& outcome);
[[nodiscard]] JobOutcome decode_outcome(const Bytes& payload);

/// kStatsReply payload: the daemon's lifetime counters and live gauges.
struct WireStats {
  std::uint64_t accepted = 0;    // submits admitted to a queue
  std::uint64_t completed = 0;   // results streamed back
  std::uint64_t denied = 0;      // RETRY-AFTER denials
  std::uint64_t canceled = 0;    // kCancel + disconnect teardowns
  std::uint64_t worker_spawns = 0;
  std::uint64_t worker_respawns = 0;   // replacements after forced teardown
  std::uint64_t tokens_reclaimed = 0;  // governor reconcile total
  std::uint64_t inflight_hw = 0;       // submitted-not-replied high water
  std::uint32_t queued = 0;
  std::uint32_t running = 0;
  std::uint32_t clients = 0;
  std::uint32_t workers_idle = 0;
  std::uint32_t workers_busy = 0;
};

[[nodiscard]] Bytes encode_stats(const WireStats& stats);
[[nodiscard]] WireStats decode_stats(const Bytes& payload);

}  // namespace altx::server
