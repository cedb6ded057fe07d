// SpeculationGovernor: resource governance for speculative arms.
//
// The paper's bet (§3.1) assumes spare capacity is free; a production
// process racing N alternatives per block can fork-bomb itself — losers
// burn CPU and dirty pages until elimination, and nothing bounds the
// *aggregate* when many blocks race concurrently. The governor is the
// containment layer (Randell's recovery-block confinement, plus the hedged
// -request discipline of Dean & Barroso) with three duties:
//
//   1. Per-arm quotas. Children get RLIMIT_CPU / RLIMIT_AS at fork, and the
//      governor holds the per-arm wall-clock and CPU budgets that every
//      governed AltGroup enforces in its own cohort wait (alt_group.hpp):
//      an arm past a budget is SIGKILLed (live CPU read from
//      /proc/<pid>/stat; the final bill still comes from wait4 at reap, as
//      in the speculation ledger). The group reports each kill
//      back through note_kill, for the stats.
//
//   2. Global admission control. A token budget caps concurrent speculative
//      children across *all* blocks of the process tree (the pool lives in
//      MAP_SHARED memory, so nested blocks inside forked arms draw from the
//      same pool). A block asking for n tokens is granted k = min(n, free
//      tokens) — while other admissions sleep, at most its even share of
//      the free tokens, at least one — and its AltGroup runs at most k arms
//      at once: the rest are
//      forked, in index order, as earlier arms are reaped. Tokens are
//      block-scoped: a block holds them from its admission to its verdict,
//      returns those no running or pending arm needs as it goes, and
//      returns every one it still holds at the verdict — the losers the
//      verdict SIGKILLs can run no more code, so a token never waits for a
//      dying loser to be reaped. A block that finds no token free sleeps on
//      a futex on the pool's in_flight word (a futex on a MAP_SHARED word
//      wakes across processes) until a release() wakes it; past the
//      admission wait it overdrafts one. One arm is the paper's own
//      sequential semantics — the floor, never zero — so the governor can
//      throttle speculation to sequential but never denies a block and
//      never wedges the program.
//
//   3. Pressure-driven shedding. /proc/pressure/{memory,cpu} PSI (fallback:
//      /proc/meminfo MemAvailable; fake-able via ALTX_PSI_PATH for tests)
//      shrinks the effective token budget as stall fractions climb, and at
//      the kill threshold each governed group sheds its own lowest-PI live
//      arm (the highest alternative index — alternatives are PI-ordered per
//      §4.2) before the OOM killer picks a victim for us, never the group's
//      last live arm. Pressure is sampled lazily — by admit() and by
//      governed waits — at most once per pressure_interval across every
//      process sharing the pool.
//
// Everything is opt-in: without ALTX_GOV_* or ALTX_PRED=1 in the
// environment (or a programmatic config) global() is nullptr and every call
// site costs one null check. ALTX_PRED=1 alone builds a governor with no
// duty of its own, since only a governed group enforces the planner's
// predicted-kill deadlines (posix/predictor.hpp). The governor runs no
// thread: every duty is carried out by the process that admits or waits,
// so a forked copy (a nested block, an altxd worker) enforces its budgets
// exactly as the process that built it.
//
// Env knobs (see GovernorConfig::from_env):
//   ALTX_GOV_TOKENS         concurrent speculative children cap (0 = off)
//   ALTX_GOV_SERIAL_WAIT_MS patience for a first token before the overdraft
//   ALTX_GOV_WALL_MS        per-arm wall-clock budget (0 = none)
//   ALTX_GOV_CPU_MS         per-arm CPU budget (0 = none)
//   ALTX_GOV_RLIMIT_CPU_S   child RLIMIT_CPU seconds (0 = unset)
//   ALTX_GOV_RLIMIT_AS_MB   child RLIMIT_AS MiB (0 = unset)
//   ALTX_PSI_PATH           read PSI from this file instead of /proc
//   ALTX_GOV_PSI_SHED       stall %% where the budget starts shrinking
//   ALTX_GOV_PSI_KILL       stall %% where live arms are shed
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace altx::posix {

struct GovernorConfig {
  /// Concurrent speculative children across every block (0 = admission off).
  int tokens = 0;

  /// Patience for a first free token before the liveness overdraft.
  std::chrono::milliseconds serial_admit_wait{30'000};

  /// Per-arm budgets, enforced by each governed group's cohort wait; 0
  /// disables the respective check.
  std::chrono::milliseconds arm_wall_budget{0};
  std::chrono::milliseconds arm_cpu_budget{0};

  /// Hard kernel-side backstops applied in the child right after fork.
  std::uint64_t rlimit_cpu_s = 0;   // RLIMIT_CPU, seconds (0 = leave alone)
  std::uint64_t rlimit_as_mb = 0;   // RLIMIT_AS, MiB (0 = leave alone)

  /// Pressure monitoring. psi_path overrides the /proc sources (tests point
  /// it at a fixture file); thresholds are avg10 stall percentages.
  std::string psi_path;
  double psi_shed_pct = 60.0;   // budget starts shrinking here
  double psi_kill_pct = 90.0;   // lowest-PI arms are shed here
  double mem_floor_pct = 8.0;   // meminfo fallback: MemAvailable floor

  std::chrono::milliseconds pressure_interval{100}; // PSI sample cadence

  /// Reads the ALTX_GOV_* / ALTX_PSI_PATH knobs.
  static GovernorConfig from_env();

  /// True when any duty (admission, budgets, rlimits) is configured.
  [[nodiscard]] bool any_enabled() const {
    return tokens > 0 || arm_wall_budget.count() > 0 ||
           arm_cpu_budget.count() > 0 || rlimit_cpu_s > 0 ||
           rlimit_as_mb > 0;
  }
};

enum class Admission : std::uint8_t {
  kGranted,    // tokens taken from the pool
  kOverdraft,  // one-token liveness grant past the pool cap
};

enum class GovKillReason : std::uint8_t {
  kWall = 0,  // wall-clock budget exceeded
  kCpu = 1,   // CPU budget exceeded
  kShed = 2,  // pressure shed (lowest-PI live arm)
  kPredicted = 3,  // elapsed wall overran the arm's own historical kill
                   // quantile (predictor's early-kill rule)
};

const char* to_string(GovKillReason reason);

/// What the pressure sources said, one sample.
struct PressureSample {
  bool valid = false;
  double mem_stall_pct = 0.0;    // PSI memory "some" avg10
  double cpu_stall_pct = 0.0;    // PSI cpu "some" avg10
  double mem_available_pct = -1; // meminfo fallback; -1 = unknown
};

/// Parses PSI ("some avg10=X ...") from `psi_override` when non-empty, else
/// /proc/pressure/{memory,cpu}, else the /proc/meminfo fallback. Exposed
/// for tests.
[[nodiscard]] PressureSample read_pressure(const std::string& psi_override);

struct GovernorStats {
  std::uint64_t admitted = 0;
  std::uint64_t waited = 0;      // admissions that had to queue first
  std::uint64_t narrowed = 0;    // grants of fewer tokens than asked for
  std::uint64_t overdrafts = 0;
  std::uint64_t reclaimed = 0;   // tokens returned from dead holders
  std::uint64_t kills_wall = 0;
  std::uint64_t kills_cpu = 0;
  std::uint64_t kills_shed = 0;
  std::uint64_t kills_predicted = 0;
  std::uint64_t pressure_shrinks = 0;  // budget reductions applied
  int in_flight = 0;
  int max_in_flight = 0;       // high-water mark, including overdrafts
  int effective_tokens = 0;    // budget after pressure shrink
};

class SpeculationGovernor {
 public:
  explicit SpeculationGovernor(GovernorConfig cfg);
  ~SpeculationGovernor();

  SpeculationGovernor(const SpeculationGovernor&) = delete;
  SpeculationGovernor& operator=(const SpeculationGovernor&) = delete;

  [[nodiscard]] const GovernorConfig& config() const { return cfg_; }
  [[nodiscard]] bool admission_enabled() const { return cfg_.tokens > 0; }

  /// Takes k = min(n, free tokens) tokens and stores k in `*granted`; while
  /// W other admissions sleep, k = min(n, max(1, free / (W + 1))), so the
  /// tokens one verdict returns go to several waiting blocks, not all to the
  /// first that runs. With no token free it sleeps on a futex on the
  /// pool's in_flight word, woken
  /// by release(), up to serial_admit_wait in all, then overdrafts one
  /// (kOverdraft, k = 1), so sequential progress is always possible.
  /// Admission off: every request is granted in full.
  Admission admit(int n, int* granted = nullptr);

  /// Returns n tokens to the pool and wakes the admissions waiting for one,
  /// in whichever process they sleep.
  void release(int n);

  /// Returns the tokens held by processes that no longer exist. Normally a
  /// process releases what it admitted by its blocks' verdicts; a process
  /// SIGKILLed mid-block (altxd tearing down a worker cohort) never does,
  /// and its tokens would leak from the shared pool forever. Each admit
  /// records the caller's holding in a per-pid ledger inside the MAP_SHARED
  /// pool; this scans the ledger, probes each holder with kill(pid, 0), and
  /// returns dead holders' tokens. Call it from the pool's supervisor after
  /// any forced teardown (and periodically). Returns the tokens reclaimed.
  int reconcile_dead_holders();

  /// Child side, right after fork: applies RLIMIT_CPU / RLIMIT_AS.
  void apply_child_rlimits() const;

  /// Samples the pressure sources and re-derives the effective budget now
  /// (admit() and governed waits do this at most once per
  /// pressure_interval; tests call it directly).
  void poll_pressure_now();

  /// True when the last pressure sample, taken first if it is older than
  /// pressure_interval, is at or above psi_kill_pct: governed groups then
  /// shed arms.
  [[nodiscard]] bool shedding();

  /// Counts a kill a governed group sent one of its arms.
  void note_kill(GovKillReason reason);

  /// The token budget after pressure shrink (floor 1; = tokens when calm).
  [[nodiscard]] int effective_tokens() const;

  [[nodiscard]] GovernorStats stats() const;

  /// The env-configured process governor, built on first use; nullptr when
  /// no ALTX_GOV_* knob is set and ALTX_PRED is not 1. Race options resolve
  /// a null governor field to this.
  static SpeculationGovernor* global();

 private:
  struct SharedPool;   // MAP_SHARED counters (fork-wide truth)

  void sample_pressure_if_due();
  void apply_pressure(const PressureSample& s);

  GovernorConfig cfg_;
  SharedPool* pool_ = nullptr;  // shared mapping; survives fork
};

}  // namespace altx::posix
