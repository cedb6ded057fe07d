// In-child sampling profiler: what was a speculative arm *doing* with the
// CPU it burned?
//
// The accounting layer (PR 3) bills every loser's CPU via wait4 rusage, and
// the governor (PR 6) kills over-budget arms — but neither can say what the
// wasted cycles were spent on. This profiler arms an ITIMER_PROF/SIGPROF
// sampler inside each speculative child right after fork; every tick walks
// the frame-pointer chain and compacts the backtrace into kProfSample
// records pushed straight into the fork-shared trace ring. Because the ring
// is MAP_SHARED and push() is async-signal-safe, samples from a child that
// is later SIGKILLed by elimination or a governed budget survive — the loser's
// profile is readable post-mortem, exactly like its fate and page census.
//
// Sample encoding (ring records are 64 bytes; a backtrace is not): each
// sample becomes ceil(n_frames / 2) kProfSample fragments. `a` and `b`
// carry two pc values each (0 = unused); `c` packs
// sample_id << 16 | fragment_index << 8 | total_fragments, so a reader
// reassembles fragments per (pid, sample_id) regardless of interleaving
// with other children's samples. A kProfMap record (per sampled process)
// carries the main executable's load base so pcs symbolize as exe+offset
// under ASLR; forked children share the parent's layout.
//
// Env knobs (read once before main, like ALTX_TRACE):
//   ALTX_PROF=1        arm the sampler in every speculative child
//   ALTX_PROF_HZ=<hz>  sample rate (default 997 — prime, avoids beating
//                      with millisecond-aligned work)
//
// Requires tracing (a ring) and frame pointers; the build compiles with
// -fno-omit-frame-pointer so the walk sees every altx frame. The disabled
// path of prof_arm_child is one predicted branch.
#pragma once

#include <cstdint>

namespace altx::obs {

namespace profdetail {
extern bool g_prof_enabled;  // written only during single-threaded init
void arm_child_slow(std::uint32_t race_id, int child_index) noexcept;
void prewarm_slow() noexcept;
}  // namespace profdetail

/// True when ALTX_PROF (or prof_enable) turned sampling on.
[[nodiscard]] inline bool prof_enabled() noexcept {
  return profdetail::g_prof_enabled;
}

/// The configured sample rate in Hz (0 when disabled).
[[nodiscard]] int prof_hz() noexcept;

/// Child side, right after fork (alt_group calls this next to
/// set_current_race): installs the SIGPROF handler and starts the CPU-time
/// interval timer. One predicted branch when disabled.
inline void prof_arm_child(std::uint32_t race_id, int child_index) noexcept {
  if (!profdetail::g_prof_enabled) [[likely]] return;
  profdetail::arm_child_slow(race_id, child_index);
}

/// Parent side, before the fork loop: caches this thread's stack bounds in
/// a thread_local the children inherit, so arming in the child skips the
/// /proc/self/maps read pthread_getattr_np costs on the main thread.
inline void prof_prewarm() noexcept {
  if (!profdetail::g_prof_enabled) [[likely]] return;
  profdetail::prewarm_slow();
}

/// Stops sampling in this process (used by tests between cases).
void prof_disarm() noexcept;

/// Testing / embedding: enables sampling at `hz` without the env knob.
/// Tracing must already be enabled (the samples need a ring).
void prof_enable(int hz = 997);

/// kProfSample `c` payload codec, shared with readers.
[[nodiscard]] constexpr std::uint64_t prof_pack_meta(
    std::uint32_t sample_id, std::uint8_t fragment,
    std::uint8_t total_fragments) noexcept {
  return (static_cast<std::uint64_t>(sample_id) << 16) |
         (static_cast<std::uint64_t>(fragment) << 8) | total_fragments;
}
[[nodiscard]] constexpr std::uint32_t prof_sample_id(std::uint64_t c) noexcept {
  return static_cast<std::uint32_t>(c >> 16);
}
[[nodiscard]] constexpr std::uint8_t prof_fragment(std::uint64_t c) noexcept {
  return static_cast<std::uint8_t>(c >> 8);
}
[[nodiscard]] constexpr std::uint8_t prof_total_fragments(
    std::uint64_t c) noexcept {
  return static_cast<std::uint8_t>(c);
}

}  // namespace altx::obs
