// Deterministic fault injection for the real-process backend.
//
// The simulator can crash a node at a chosen instant (`Kernel::crash_node_at`)
// and the predicate cascade cleans up; the POSIX backend runs on a real
// kernel, where faults arrive as signals, hangs, and failed syscalls. This
// injector lets both backends run the same fault matrix: child processes
// consult it at their commit/abort points and (deterministically, from the
// seed) die, hang, stall, or lose their commit; the parent consults it before
// each fork() to simulate resource exhaustion (EAGAIN).
//
// Every decision is a pure function of (seed, attempt, child index), so a
// fault plan replays byte-identically: the same seed produces the same fate
// for the same child on the same attempt, across runs and across machines.
// The attempt counter advances once per spawned group (AltGroup::alt_spawn,
// which await_all runs on too), which is what makes retries see fresh draws
// while staying reproducible.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

namespace altx::posix {

/// What the injector does to a child that reaches its sync point (or to the
/// parent's fork). Ordered roughly by violence.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCrashSegv,   // re-arm SIG_DFL and raise SIGSEGV: a wild-pointer death
  kCrashKill,   // raise SIGKILL: the OOM-killer / operator kill
  kHang,        // sleep far past any plausible deadline (livelock)
  kDelay,       // stall for `delay`, then proceed normally (GC pause, swap)
  kEarlyExit,   // _exit with an unexpected status, no synchronization
  kDropCommit,  // consume the commit token but never deliver the result
                // frame: a crash in the window between synchronizing and
                // publishing — the nastiest at-most-once stressor
  kCpuSpin,     // busy-loop for `spin_for` burning CPU, then exit without
                // synchronizing: the runaway arm the governor's CPU budget
                // (and RLIMIT_CPU backstop) exists to contain
  kMemHog,      // allocate and touch `hog_mb` MiB, stall holding it, then
                // exit without synchronizing: the memory-pressure source
                // behind PSI shedding and RLIMIT_AS
};

const char* to_string(FaultKind kind);

/// Per-fault probabilities. Child-side probabilities must sum to <= 1; the
/// remainder is the no-fault case. `fork_fail` is drawn independently on the
/// parent side per fork attempt.
struct FaultProfile {
  double crash_segv = 0.0;
  double crash_kill = 0.0;
  double hang = 0.0;
  double delay = 0.0;
  double early_exit = 0.0;
  double drop_commit = 0.0;
  double cpu_spin = 0.0;
  double mem_hog = 0.0;
  double fork_fail = 0.0;   // parent side: fork() reports EAGAIN, permanently
  double fork_storm = 0.0;  // parent side: fork() EAGAINs transiently — the
                            // first `storm_tries` in-place retries fail, then
                            // the fork succeeds (pid-exhaustion burst)

  std::chrono::milliseconds delay_for{20};     // kDelay stall
  std::chrono::milliseconds hang_for{600'000};  // kHang: 10 min ~ forever
  std::chrono::milliseconds spin_for{2'000};   // kCpuSpin busy-loop length
  std::uint64_t hog_mb = 64;                   // kMemHog allocation size
  int storm_tries = 2;                         // fork_storm: failing tries

  [[nodiscard]] double child_total() const {
    return crash_segv + crash_kill + hang + delay + early_exit + drop_commit +
           cpu_spin + mem_hog;
  }
  void validate() const;

  /// Parses "crash_segv=0.1,hang=0.05,fork_fail=0.02,delay_ms=10" — the
  /// ALTX_FAULT_PLAN format. Unknown keys throw UsageError.
  static FaultProfile parse(const std::string& spec);
};

class FaultInjector {
 public:
  FaultInjector(std::uint64_t seed, FaultProfile profile);

  /// Reads ALTX_FAULT_PLAN (profile spec) and ALTX_FAULT_SEED (u64) from the
  /// environment. Returns nullptr when ALTX_FAULT_PLAN is unset — faults are
  /// strictly opt-in.
  static std::unique_ptr<FaultInjector> from_env();

  /// The fate of child `child_index` (1-based) on attempt `attempt`.
  /// Pure: depends only on (seed, attempt, child_index).
  [[nodiscard]] FaultKind decide(std::uint64_t attempt, int child_index) const;

  /// Whether the parent's fork() of child `child_index` on `attempt` should
  /// be made to fail with EAGAIN. `try_n` is the in-place retry ordinal
  /// (0 = first try): a `fork_fail` draw fails every try, a `fork_storm`
  /// draw fails only tries below `storm_tries` — transient exhaustion the
  /// spawn loop's bounded retry is meant to ride out. Pure, independent
  /// stream from decide().
  [[nodiscard]] bool fork_fails(std::uint64_t attempt, int child_index,
                                int try_n = 0) const;

  /// Parent side, once per spawned group: returns the attempt id the group's
  /// children will consult and advances the counter.
  std::uint64_t begin_attempt() { return attempt_++; }

  /// Child side, at the commit/abort point. Executes the decided fault:
  /// kCrashSegv/kCrashKill/kHang/kEarlyExit never return; kDelay stalls and
  /// then returns kNone. Only kNone and kDropCommit are ever returned — the
  /// caller must handle kDropCommit (lose the result on the floor).
  FaultKind at_sync_point(std::uint64_t attempt, int child_index) const;

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const FaultProfile& profile() const { return profile_; }

 private:
  std::uint64_t seed_;
  FaultProfile profile_;
  std::uint64_t attempt_ = 0;
};

}  // namespace altx::posix
