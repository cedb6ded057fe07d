// Phase spans: named sub-intervals of an alternative block's lifetime.
//
// The trace ring can already say *that* a race took 20 µs; phases say
// *where* those microseconds went. Each span is a kPhaseBegin/kPhaseEnd
// record pair sharing a Phase id; the end record carries the measured
// duration in `b`, so a span is self-contained — a child SIGKILLed between
// begin and end truncates to a dangling begin instead of corrupting
// anything, and the reducer never has to pair records across a kill.
//
// Parent-side spans (child_index == 0) are emitted sequentially by
// alt_group/race and tile the interval from kRaceBegin to kRaceDecided:
//
//   admission_wait   queueing for governor tokens (only under a governor)
//   fork             the block's words on the commit board, then for each
//                    arm its result pipe, fork(2) and its pidfd (the arm's
//                    kFork record: b = that whole step, c = fork(2) alone)
//   arm_run          parent waiting for the first commit (the arms racing)
//   result_pipe      reading / writing the winner's result frame
//   absorb           pulling the winner's dirty pages into the parent's
//                    heap (or applying its patch when the pull is refused)
//   eliminate        killing the surviving losers, reaping those already
//                    gone and handing the rest to the reap set
//   decide           final accounting up to kRaceDecided
//
// Child-side spans (child_index >= 1) measure the speculative work itself:
// arm_run (guard body), page_diff (listing the dirty pages as runs, or
// serializing them for a patch), result_pipe (writing the frame). They
// overlap each other and the parent spans — the critical-path reducer
// attributes wall time from the parent spans only and reports the child
// spans separately.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/event.hpp"
#include "obs/trace.hpp"

namespace altx::obs {

/// Span names. Values are part of the on-disk format (kPhaseBegin/End `a`
/// payload) — append only.
enum class Phase : std::uint8_t {
  kNone = 0,
  kAdmissionWait = 1,
  kFork = 2,
  kArmRun = 3,
  kResultPipe = 4,
  kAbsorb = 5,
  kDecide = 6,
  kEliminate = 7,
  kPageDiff = 8,
  // Daemon-side queue wait (altxd): submit frame arrival → worker
  // assignment. Emitted by the worker as a self-contained span of the race
  // the job became, so `altx-trace --critical-path` attributes server
  // queueing next to the in-process phases. The span precedes kRaceBegin in
  // wall time, so it adds attribution beyond the race's own wall interval
  // (coverage clamps at 1).
  kSrvQueue = 9,
};

inline constexpr int kPhaseCount = 10;  // including kNone

[[nodiscard]] const char* to_string(Phase phase);

/// RAII span. Construction emits kPhaseBegin and samples the clock;
/// end() (or the destructor) emits kPhaseEnd carrying the duration.
/// Disabled-path cost is one predicted branch per endpoint. Not
/// copyable/movable — spans are lexical.
class ScopedPhase {
 public:
  ScopedPhase(Phase phase, std::uint32_t race_id,
              std::int16_t child_index = 0) noexcept
      : phase_(phase), race_(race_id), child_(child_index) {
    if (!enabled()) [[likely]] return;
    t0_ = now_ns();
    emit(EventKind::kPhaseBegin, race_, child_,
         static_cast<std::uint64_t>(phase_));
  }
  ~ScopedPhase() { end(); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

  /// Ends the span now (idempotent; the destructor is then a no-op).
  void end() noexcept {
    if (t0_ == 0) return;
    emit(EventKind::kPhaseEnd, race_, child_,
         static_cast<std::uint64_t>(phase_), now_ns() - t0_);
    t0_ = 0;
  }

  /// Abandons the span without an end record. A forked child calls this on
  /// its copy of a parent-side span so only the parent emits the end.
  void cancel() noexcept { t0_ = 0; }

  [[nodiscard]] bool open() const noexcept { return t0_ != 0; }

 private:
  Phase phase_;
  std::uint32_t race_;
  std::int16_t child_;
  std::uint64_t t0_ = 0;
};

/// Non-RAII endpoints for spans that cross function boundaries (a child's
/// arm_run starts in alt_spawn and ends in child_commit/child_abort).
/// phase_begin returns the begin timestamp (0 when disabled); pass it back
/// to phase_end.
[[nodiscard]] inline std::uint64_t phase_begin(
    Phase phase, std::uint32_t race_id, std::int16_t child_index) noexcept {
  if (!enabled()) [[likely]] return 0;
  const std::uint64_t t0 = now_ns();
  emit(EventKind::kPhaseBegin, race_id, child_index,
       static_cast<std::uint64_t>(phase));
  return t0;
}

inline void phase_end(Phase phase, std::uint32_t race_id,
                      std::int16_t child_index, std::uint64_t t0) noexcept {
  if (t0 == 0) return;
  emit(EventKind::kPhaseEnd, race_id, child_index,
       static_cast<std::uint64_t>(phase), now_ns() - t0);
}

/// Critical-path reduction -------------------------------------------------

/// Where one race's wall time went. `phase_ns` holds parent-side span
/// durations indexed by Phase; `child_ns` aggregates the child-side spans
/// (informational — they overlap the parent timeline, so they are not part
/// of the coverage sum).
struct PhaseBreakdown {
  std::uint64_t begin_ns = 0;          // kRaceBegin timestamp
  std::uint64_t wall_ns = 0;           // kRaceBegin → kRaceDecided
  bool decided = false;                // kRaceDecided seen
  std::uint64_t phase_ns[kPhaseCount] = {};
  std::uint64_t child_ns[kPhaseCount] = {};
  std::uint32_t dangling_begins = 0;   // spans truncated by a kill
  // Socket + poll-loop dispatch time of the daemon hop: the part of the
  // client's wall before the daemon admitted the job plus the part after
  // it forwarded the result. Only the by-trace reduction fills this (both
  // rings must be present); same-host monotonic clocks make the cross-
  // process subtraction meaningful.
  std::uint64_t rpc_ns = 0;

  /// Sum of the parent-side phase durations plus the daemon-hop rpc time.
  [[nodiscard]] std::uint64_t attributed_ns() const noexcept;

  /// attributed / wall, in [0, 1]; 0 when the race never decided.
  [[nodiscard]] double coverage() const noexcept;

  /// The parent-side phase with the largest share (kNone when empty).
  [[nodiscard]] Phase dominant() const noexcept;
};

/// Reduces a record stream to per-race breakdowns. Only races that emitted
/// kRaceBegin appear; races never decided (no kRaceDecided: a fork failure,
/// a cut-off trace) appear with decided == false and wall_ns == 0. The dangling-span audit keys spans by
/// (node, race) — two stitched rings' colliding race counters cannot cancel
/// each other — and by trace id when one is set, so a span whose begin and
/// end landed in different rings counts as one cross-hop span, not two
/// truncated halves.
[[nodiscard]] std::map<std::uint32_t, PhaseBreakdown> reduce_critical_path(
    const std::vector<Record>& records);

/// Cross-hop reduction: groups by Record::trace_id (nonzero only), merging
/// the client's and the daemon's rings of one job into a single breakdown.
/// wall_ns is the outermost kRaceBegin→kRaceDecided interval — the client's
/// submit→result when its ring is present — and phase_ns sums the parent
/// spans from every node under the trace, so coverage() measures how much
/// of the client-observed wall is attributed to named phases across the
/// socket hop. rpc_ns captures the hop itself (client submit → daemon
/// kSrvSubmit, daemon kSrvResult → client decided) so wire and dispatch
/// time count as attributed rather than as mystery residue.
[[nodiscard]] std::map<std::uint64_t, PhaseBreakdown>
reduce_critical_path_by_trace(const std::vector<Record>& records);

}  // namespace altx::obs
