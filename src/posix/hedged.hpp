// Hedged execution: staggered replicas of ONE method.
//
// The paper's fastest-first selection, applied to a single alternative whose
// latency is unpredictable (its section 4.2 case 3: "tau may vary due to the
// execution environment"). Instead of racing different algorithms, race
// staggered copies of the same one: launch the primary; if it has not
// finished within `stagger`, launch another copy; the first to finish wins
// and the rest are eliminated. Decades later this reappeared as the "hedged
// request" defence against tail latency; it is exactly an alternative block
// whose alternates are replicas with delayed starts — a plan over AltGroup's
// launch schedule in which copy k starts k*stagger after the block, so a
// copy whose start the verdict comes before is never forked at all.
#pragma once

#include <chrono>

#include "obs/trace.hpp"
#include "posix/race.hpp"

namespace altx::posix {

struct HedgeOptions {
  int max_copies = 2;  // primary + hedges
  std::chrono::milliseconds stagger{20};  // delay before each extra copy
  std::chrono::milliseconds timeout{30'000};

  /// Resource governor: hedge copies are speculative children like any
  /// other and draw from the same admission pool. nullptr resolves to
  /// SpeculationGovernor::global().
  SpeculationGovernor* governor = nullptr;

  /// History + prediction passthrough: with a site_id the underlying race
  /// records each copy's wall/success, and with ALTX_PRED=1 the planner's
  /// early-kill deadlines apply to the copies of a governed block — the
  /// cohort wait kills a copy that overruns its own historical kill
  /// quantile early, while the stagger schedule itself stays the caller's.
  std::uint64_t site_id = 0;
};

template <RaceSerializable T>
struct HedgeResult {
  T value{};
  int copies_launched = 0;  // how many copies were forked
  bool hedge_won = false;   // a non-primary copy produced the result
};

/// A hedged task receives its copy index (0 = primary) so hedges can target
/// a different replica, server, or strategy variant.
template <typename T>
using HedgedFn = std::function<std::optional<T>(int copy)>;

/// Runs `task` with hedging. Copy k is forked k*stagger after the block
/// starts, so later copies only run when earlier ones are slow. Returns
/// nullopt on total failure or timeout.
template <RaceSerializable T>
std::optional<HedgeResult<T>> hedged(const HedgedFn<T>& task,
                                     const HedgeOptions& options = {}) {
  ALTX_REQUIRE(options.max_copies >= 1, "hedged: need at least one copy");
  std::vector<AlternativeFn<T>> alts;
  for (int k = 0; k < options.max_copies; ++k) {
    alts.push_back([&task, k]() -> std::optional<T> {
      // Each copy is an attempt at the same task; stamp its ordinal the way
      // supervisor.hpp does, so the timeline attributes this child's events
      // to hedge copy k rather than to whatever attempt it inherited through
      // fork. We are in the forked child: the parent's scope is untouched.
      obs::set_attempt(static_cast<std::uint32_t>(k));
      return task(k);
    });
  }
  RaceOptions ro;
  ro.timeout = options.timeout;
  ro.governor = options.governor;
  ro.site_id = options.site_id;
  RaceReport report;
  ro.report = &report;
  // The stagger is the schedule; of a prediction only the kill deadlines
  // are kept.
  SpeculationPlan plan = plan_race(ro, options.max_copies);
  plan.arms.resize(static_cast<std::size_t>(options.max_copies));
  const auto stagger_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(options.stagger)
          .count());
  for (int k = 0; k < options.max_copies; ++k) {
    ArmPlan& a = plan.arms[static_cast<std::size_t>(k)];
    a.arm = static_cast<std::uint32_t>(k) + 1;
    a.decision = k == 0 ? ArmDecision::kLaunch : ArmDecision::kHedge;
    a.stage_after_ns = static_cast<std::uint64_t>(k) * stagger_ns;
  }
  plan.launched = 1;
  plan.hedged = options.max_copies - 1;
  plan.skipped = 0;
  const auto r = run_race<T>(alts, ro, plan);
  if (!r.has_value()) return std::nullopt;
  HedgeResult<T> out;
  out.value = r->value;
  out.copies_launched = report.forked;
  out.hedge_won = r->winner > 1;
  return out;
}

}  // namespace altx::posix
