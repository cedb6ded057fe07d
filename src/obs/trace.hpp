// Process-wide tracing facade: the one-branch-when-disabled event sites.
//
// Enablement is decided once, before main() runs (a static initializer in
// trace.cpp reads ALTX_TRACE / ALTX_METRICS), so the shared ring exists in
// the parent before any alt_spawn forks and every child inherits it. Event
// sites call obs::emit(...), whose entire disabled-path cost is one load of
// a non-atomic global bool and one predicted-not-taken branch — measured by
// bench_micro's BM_RealForkRace (< 2% is the budget, noise is the reality).
//
// Environment knobs:
//   ALTX_TRACE=<path>          enable tracing; export the trace here at exit
//   ALTX_TRACE_FORMAT=jsonl|chrome   export format (default jsonl)
//   ALTX_TRACE_BUF=<records>   ring capacity (default 65536)
//   ALTX_TRACE_RING=<path>     enable tracing with a file-backed ring that
//                              a live monitor (altx-top) can attach to
//   ALTX_NODE_ID=<n>           node id stamped into every record (default 0)
//   ALTX_METRICS=<path>        dump the metrics registry as JSON at exit
//   ALTX_METRICS_INTERVAL_MS=<ms>  also rewrite the ALTX_METRICS file
//                              periodically (live snapshots, atomic rename)
//
// Only the process that created the ring exports at exit: children leave
// through _exit (or a signal), which skips atexit — by design, their story
// is already in the shared ring.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace altx::obs {

class TraceRing;

namespace detail {
extern bool g_enabled;  // written only during single-threaded init paths
void emit_slow(EventKind kind, std::uint32_t race_id, std::int16_t child_index,
               std::uint64_t a, std::uint64_t b, std::uint64_t c) noexcept;
}  // namespace detail

/// True when any sink (trace file, metrics dump, or a test) is attached.
[[nodiscard]] inline bool enabled() noexcept { return detail::g_enabled; }

/// Records one event, stamped with CLOCK_MONOTONIC and getpid(). The
/// disabled path is a single predicted branch; never throws.
inline void emit(EventKind kind, std::uint32_t race_id,
                 std::int16_t child_index, std::uint64_t a = 0,
                 std::uint64_t b = 0, std::uint64_t c = 0) noexcept {
  if (!detail::g_enabled) [[likely]] return;
  detail::emit_slow(kind, race_id, child_index, a, b, c);
}

/// As emit(), but with a caller-supplied timestamp — the simulated-time
/// layers (sim, dist, consensus) stamp events with sim-time nanoseconds.
void emit_at(std::uint64_t t_ns, EventKind kind, std::uint32_t race_id,
             std::int16_t child_index, std::uint64_t a = 0, std::uint64_t b = 0,
             std::uint64_t c = 0) noexcept;

/// As emit_at(), additionally overriding the record's node id — the
/// distributed layers attribute each event to the simulated node it
/// happened on (coordinator, worker, arbiter) instead of this process's
/// ALTX_NODE_ID, so a stitched timeline separates nodes correctly.
void emit_at_node(std::uint64_t t_ns, std::uint32_t node_id, EventKind kind,
                  std::uint32_t race_id, std::int16_t child_index,
                  std::uint64_t a = 0, std::uint64_t b = 0,
                  std::uint64_t c = 0) noexcept;

/// A fresh block id, unique across every process sharing the ring.
/// Returns 0 (the "untraced" id) when tracing is disabled.
[[nodiscard]] std::uint32_t next_race_id() noexcept;

/// CLOCK_MONOTONIC in ns (0 when the clock is unavailable).
[[nodiscard]] std::uint64_t now_ns() noexcept;

/// The supervisor's retry ordinal, stamped into every subsequent record of
/// this process (children inherit the value through fork). 0 = first /
/// unsupervised attempt.
void set_attempt(std::uint32_t attempt) noexcept;
[[nodiscard]] std::uint32_t current_attempt() noexcept;

/// This process's node id (ALTX_NODE_ID at init; settable for tests and
/// embeddings). Stamped into every record emitted without an explicit node.
void set_node_id(std::uint32_t node_id) noexcept;
[[nodiscard]] std::uint32_t node_id() noexcept;

/// The race id of the block this process is currently a child of (set by
/// AltGroup::alt_spawn in the child after fork; 0 in the parent). Lets code
/// that runs *inside* an alternative — a hedged copy, user code — emit into
/// the enclosing block's timeline.
void set_current_race(std::uint32_t race_id) noexcept;
[[nodiscard]] std::uint32_t current_race() noexcept;

/// The ambient cross-process trace id (Record::trace_id, schema v3).
/// Minted at the client's race<T>()/server::race<T>() entry, carried over
/// the altxd job protocol, and set in the daemon worker before it runs the
/// job so every record the worker and its speculative children emit —
/// including a SIGKILLed loser's last gasp — lands under the client's
/// trace. Inherited through fork; 0 = no ambient trace. Unlike the other
/// ambient scopes this works even when tracing is disabled, because the id
/// must still travel the wire for the *daemon's* ring to be stitchable.
void set_current_trace(std::uint64_t trace_id) noexcept;
[[nodiscard]] std::uint64_t current_trace() noexcept;

/// A fresh, nonzero, probabilistically-unique 64-bit trace id (pid, clock,
/// and a per-process counter mixed). Works with tracing disabled — remote
/// submissions always carry a real id so the daemon side stays stitchable.
[[nodiscard]] std::uint64_t mint_trace_id() noexcept;

/// As emit(), but stamping an explicit trace id instead of the ambient one.
/// The daemon's poll loop interleaves many clients' jobs in one thread, so
/// its kSrv* events name their trace per call rather than per scope.
void emit_trace(std::uint64_t trace_id, EventKind kind, std::uint32_t race_id,
                std::int16_t child_index, std::uint64_t a = 0,
                std::uint64_t b = 0, std::uint64_t c = 0) noexcept;

/// As emit_trace(), also stamping an explicit supervisor attempt: a child
/// reaped after its block returned is told under that block's ids, not
/// under whatever attempt or trace is ambient when it is reaped.
void emit_trace(std::uint64_t trace_id, std::uint32_t attempt, EventKind kind,
                std::uint32_t race_id, std::int16_t child_index,
                std::uint64_t a = 0, std::uint64_t b = 0,
                std::uint64_t c = 0) noexcept;

/// Testing / embedding API ------------------------------------------------

/// Enables tracing with an in-memory ring only (no file export at exit).
/// Idempotent; replaces the active ring, so call before spawning children.
void enable_for_test(std::size_t capacity = 1 << 16);

/// Enables tracing with a file-backed ring at `path` — the programmatic
/// equivalent of ALTX_TRACE_RING for embeddings that decide after main()
/// starts (altxd --ring). Must run before any fork so children inherit the
/// mapping. Returns false when a ring already exists (the env var won; the
/// caller keeps that ring). Throws SystemError when the file cannot be
/// created.
bool attach_ring_file(const std::string& path,
                      std::size_t capacity = 1 << 16);

/// Registers a trace export (jsonl/chrome) of the active ring at process
/// exit — the programmatic equivalent of ALTX_TRACE=path. Idempotent per
/// process; the last path/format wins.
void set_export_on_exit(const std::string& path,
                        const std::string& format = "jsonl");

/// Everything published so far, claim-ordered. Empty when disabled.
[[nodiscard]] std::vector<Record> snapshot();

/// Records lost to ring exhaustion.
[[nodiscard]] std::uint64_t dropped();

/// Clears the ring and the attempt scope (test isolation). Only safe when
/// no children are alive.
void reset();

/// The active ring, or nullptr when tracing is disabled.
[[nodiscard]] TraceRing* ring() noexcept;

/// Exports the current ring contents to `path` in the given format
/// ("jsonl" or "chrome"); called automatically at exit when ALTX_TRACE is
/// set. When records were lost to ring exhaustion, a final kRingOverflow
/// record carrying the drop count is appended to the export (and the
/// `dropped_events` counter is set) so a truncated trace is detectable
/// instead of silently short. Throws SystemError when the file cannot be
/// written.
void export_to(const std::string& path, const std::string& format);

}  // namespace altx::obs
