// Execution backends for altx-check.
//
// Each runner executes a CheckProgram under a schedule derived
// deterministically from `schedule_seed`, checks the backend-local invariants
// (the ones only it can see: exactly-one-commit from the fate census, no
// world splits, no deadlock), and returns the externally visible Observation
// for the oracle-membership check in checker.cpp.
//
// Schedule exploration:
//   sim    — CPU count, sync/async elimination, and a seeded per-pid cost
//            jitter injected through Kernel::Config::perturb_cost, which
//            reorders slice completions and therefore commit races. Fully
//            deterministic: same (program, seed) → same execution.
//   posix  — fork-order rotation of the alternatives plus (faulty mode) a
//            seeded FaultProfile driven through posix::FaultInjector and
//            supervised_race. The OS scheduler stays nondeterministic, which
//            is the point: the oracle-membership check must hold for *every*
//            real interleaving.
#pragma once

#include <cstdint>
#include <string>

#include "check/ir.hpp"
#include "check/oracle.hpp"

namespace altx::check {

struct RunOutcome {
  Observation obs;

  /// Non-empty when a backend-local invariant tripped (the observation is
  /// then meaningless). The string names the invariant.
  std::string violation;

  /// True when the run was an environmental wash — a real-time deadline hit
  /// or retries exhausted without a definitive verdict. Not a violation;
  /// the trial is counted separately and the observation is not checked.
  bool inconclusive = false;

  /// Diagnostic hash of the schedule actually taken (winner indices, fates,
  /// finish times); distinct values ≈ distinct interleavings explored.
  std::uint64_t interleaving = 0;
};

[[nodiscard]] RunOutcome run_sim(const CheckProgram& p, std::uint64_t schedule_seed);

/// `faulty` runs under supervised_race with an injected fault plan (crashes,
/// kills, lost commits) instead of a plain race. Requires a program without
/// sim-only ops (extern/send) — see uses_sim_only_ops.
///
/// `governed` additionally runs the whole trial under a seed-derived
/// SpeculationGovernor (a tight token budget, admission waits, a generous
/// per-arm wall budget): blocks granted fewer
/// tokens than arms run k arms at a time without ever changing the set of
/// admissible outcomes or committing twice, and the token cap must hold
/// (overdrafts excepted) — checked as "governor-cap-exceeded".
///
/// `predicted` runs every block under a SpeculationPlanner fed a seed-derived
/// *synthetic* history (per-block sites, per-arm warm/cold walls and success
/// rates that need not resemble what the arms do): staging and predicted
/// kills must preserve oracle membership, at-most-once-commit, and liveness
/// no matter how wrong the injected history is. Skips stay disabled — a
/// short-circuited guard is only admissible when the history is real — and a
/// FAIL with predicted kills in it is inconclusive, not a verdict: the
/// predictor may legitimately have killed the would-be winner.
[[nodiscard]] RunOutcome run_posix(const CheckProgram& p, std::uint64_t schedule_seed,
                                   bool faulty, bool governed = false,
                                   bool predicted = false);

}  // namespace altx::check
