// race<T>: the user-facing fastest-first construct over real processes.
//
// The programmer-visible equivalent of the paper's ALTBEGIN block:
//
//   auto r = altx::posix::race<int>({
//       [] { return method1(); },   // each returns std::optional<T>:
//       [] { return method2(); },   //   a value    = ENSURE guard held
//       [] { return method3(); },   //   nullopt    = guard failed
//   });
//   if (!r) ...                     //   FAIL — no method succeeded
//
// Every alternative runs in its own forked process (full COW isolation: heap,
// globals, everything); the first to produce a value wins, its result is
// returned in the parent and its siblings are eliminated. Side effects of the
// losers never escape their processes. An exception inside an alternative
// counts as a failed guard.
//
// A race is a plan run by one AltGroup: plan_race() asks the predictor (when
// the race predicts) for each arm's start delay and kill deadline, and
// run_race() hands the group those launch entries together with the child
// branch as its arm body. hedged() runs its own plan the same way.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "posix/alt_group.hpp"
#include "posix/governor.hpp"
#include "posix/predictor.hpp"

namespace altx::posix {

/// Serialisation across the commit pipe: trivially copyable types, plus
/// std::string and Bytes.
template <typename T>
concept RaceSerializable =
    std::is_trivially_copyable_v<T> || std::is_same_v<T, std::string> ||
    std::is_same_v<T, Bytes>;

/// A value's bytes, in place: what an arm commits, without allocating on
/// its way to the frame.
template <RaceSerializable T>
std::span<const std::uint8_t> race_bytes(const T& value) {
  if constexpr (std::is_same_v<T, Bytes>) {
    return value;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return {reinterpret_cast<const std::uint8_t*>(value.data()), value.size()};
  } else {
    return {reinterpret_cast<const std::uint8_t*>(&value), sizeof(T)};
  }
}

/// A copy of race_bytes(value).
template <RaceSerializable T>
Bytes race_encode(const T& value) {
  const std::span<const std::uint8_t> bytes = race_bytes(value);
  return Bytes(bytes.begin(), bytes.end());
}

template <RaceSerializable T>
T race_decode(const Bytes& b) {
  if constexpr (std::is_same_v<T, Bytes>) {
    return b;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return std::string(b.begin(), b.end());
  } else {
    ALTX_REQUIRE(b.size() == sizeof(T), "race_decode: size mismatch");
    T value;
    std::memcpy(&value, b.data(), sizeof(T));
    return value;
  }
}

/// How a race ended, plus the per-fate census — what a retry policy needs to
/// decide whether another attempt can possibly help. It is the block at its
/// verdict: a child still running then (the reap set reaps it later) counts
/// as committed if its frame was out, as aborted if its abort frame was,
/// and otherwise under the fate of the kill the verdict sent it.
struct RaceReport {
  WaitVerdict verdict = WaitVerdict::kUndecided;

  /// The trace id grouping this block's events (0 when tracing is off).
  /// Lets an embedding emit extra spans — altxd's queue-wait phase — into
  /// the same race timeline after the fact.
  std::uint32_t race_id = 0;

  int committed = 0;
  int aborted = 0;
  int too_late = 0;
  int crashed = 0;
  int hung = 0;
  int eliminated = 0;
  int over_budget = 0;  // killed over a governed budget or shed
  int predicted_losers = 0;  // killed by the predictor's early-kill rule

  /// What the plan decided (zero when prediction was off or the plan was
  /// inactive): arms deferred behind the leader, arms skipped outright.
  int pred_hedged = 0;
  int pred_skipped = 0;

  /// Arms actually forked: a deferred arm the verdict came before, a
  /// skipped arm, or one past a narrowed grant is never forked.
  int forked = 0;

  /// What the speculation cost, over the children reaped by the verdict:
  /// their CPU from wait4, the losers' discarded COW pages, and the
  /// total/winner overhead ratio. A child reaped later is billed in its
  /// kChildUsage record and the block's kSpecReport instead.
  SpeculationReport spec;
};

struct RaceOptions {
  std::chrono::milliseconds timeout{10'000};
  AltHeap* heap = nullptr;  // shared-state arena absorbed from the winner

  /// Replication for reliability (paper section 6: "transparent replication
  /// can easily be combined with the use of parallel execution of several
  /// alternatives"): each alternative is spawned this many times; any replica
  /// may win for its alternative, so a crashing replica does not lose the
  /// alternative.
  int replicas = 1;

  /// Optional seeded fault plan, consulted by children at their sync points
  /// and by the parent before each fork (see posix/fault.hpp).
  FaultInjector* fault = nullptr;

  /// When set, filled with the verdict and child-fate census after the wait.
  RaceReport* report = nullptr;

  /// Resource governor (admission, per-arm budgets, child rlimits). nullptr
  /// resolves to the env-configured SpeculationGovernor::global(); see
  /// AltGroupOptions::governor.
  SpeculationGovernor* governor = nullptr;

  /// Stable identity of this alternative block for the per-arm history
  /// store (obs/history.hpp): pass ALTX_SITE() (a file:line hash) or any
  /// nonzero id that is the same every run. When set and a history store is
  /// active, every forked child's wall/CPU/success is folded into the
  /// (site_id, arm) entry when it is reaped — by the race, or by the reap
  /// set after it (posix/reap.hpp). 0 = no history.
  std::uint64_t site_id = 0;

  /// When non-empty, names an altxd Unix socket: server::race() (see
  /// src/server/client.hpp) ships the block to that daemon instead of
  /// forking locally, so a call site redirects by filling this field and
  /// naming its alternatives. posix::race() itself ignores the field — the
  /// redirect lives in the client library, which keeps altx_posix free of a
  /// dependency on the server.
  std::string daemon_socket;

  /// Prediction-driven speculation budgeting (posix/predictor.hpp): the
  /// planner for this race, which must outlive the call. nullptr resolves
  /// to SpeculationPlanner::global(), which ALTX_PRED=1 builds — those two
  /// are the only ways to turn planning on. A race only plans when site_id
  /// is set (the planner has nothing to read otherwise), and a cold store
  /// yields the predict-off plan.
  const SpeculationPlanner* planner = nullptr;
};

template <typename T>
struct RaceResult {
  T value{};
  int winner = 0;  // 1-based index of the selected alternative
  std::size_t pages_absorbed = 0;
};

/// An alternative is any callable returning std::optional<T>; nullopt (or an
/// escaped exception) means its guard failed.
template <RaceSerializable T>
using AlternativeFn = std::function<std::optional<T>()>;

/// The plan race<T> runs: the planner's partition of the arms when the race
/// predicts (options.planner or ALTX_PRED=1, with a site_id), else an empty
/// plan — every arm launched at once, no deadline.
inline SpeculationPlan plan_race(const RaceOptions& options, int n) {
  if (options.site_id == 0) return {};  // the planner has nothing to read
  const SpeculationPlanner* planner = options.planner != nullptr
                                          ? options.planner
                                          : SpeculationPlanner::global();
  if (planner == nullptr) return {};
  SpeculationGovernor* gov = options.governor != nullptr
                                 ? options.governor
                                 : SpeculationGovernor::global();
  return planner->plan(options.site_id, n, governor_under_pressure(gov));
}

/// Runs `alts` on `plan`: arm j (replicas of alternative a are a, a+n,
/// a+2n, ...) starts after its alternative's stage_after_ns, is
/// predicted-killed past its kill_after_ns, and is never forked when
/// skipped. A non-empty plan is told in one kPredPlan event.
template <RaceSerializable T>
std::optional<RaceResult<T>> run_race(const std::vector<AlternativeFn<T>>& alts,
                                      const RaceOptions& options,
                                      const SpeculationPlan& plan) {
  ALTX_REQUIRE(!alts.empty(), "race: need at least one alternative");
  ALTX_REQUIRE(options.replicas >= 1, "race: need at least one replica");
  const int n = static_cast<int>(alts.size());
  const auto arms = static_cast<std::size_t>(n * options.replicas);

  AltGroupOptions go;
  go.heap = options.heap;
  go.fault = options.fault;
  go.governor = options.governor;
  go.site_id = options.site_id;
  if (!plan.arms.empty() || options.replicas > 1) {
    // Replicas fold into their alternative's history entry. A hedged arm
    // that lost ran only from its late start to the verdict, so only its
    // commit is a sample.
    go.launch.resize(arms);
    for (std::size_t j = 0; j < arms; ++j) {
      const std::size_t alt = j % static_cast<std::size_t>(n);
      ArmLaunch& launch = go.launch[j];
      launch.history_arm = static_cast<std::uint32_t>(alt) + 1;
      if (plan.arms.empty()) continue;
      const ArmPlan& ap = plan.arms[alt];
      launch.delay_ns = ap.decision == ArmDecision::kSkip ? ArmLaunch::kNever
                                                          : ap.stage_after_ns;
      launch.kill_ns = ap.kill_after_ns;
      launch.censored = ap.decision == ArmDecision::kHedge;
    }
  }
  AltGroup group(go);
  // Child: runs its alternative, then synchronizes (or aborts); it never
  // returns into the caller's world.
  group.alt_spawn(static_cast<int>(arms), [&](int who) {
    const std::optional<T> out = alts[static_cast<std::size_t>((who - 1) % n)]();
    if (out.has_value()) group.child_commit(race_bytes<T>(*out));
  });
  // One kPredPlan per planned race, active or not, so the trace can tell
  // "predicted, cold store" from "prediction off".
  if (!plan.arms.empty()) {
    obs::emit(obs::EventKind::kPredPlan, group.race_id(), 0,
              static_cast<std::uint64_t>(plan.launched),
              static_cast<std::uint64_t>(plan.hedged),
              static_cast<std::uint64_t>(plan.skipped));
    if (obs::enabled()) {
      auto& m = obs::MetricsRegistry::global();
      m.counter("pred_plans").add();
      if (plan.hedged > 0) {
        m.counter("pred_hedged").add(static_cast<std::uint64_t>(plan.hedged));
      }
      if (plan.skipped > 0) {
        m.counter("pred_skipped")
            .add(static_cast<std::uint64_t>(plan.skipped));
      }
    }
  }
  auto win = group.alt_wait(options.timeout);
  const auto& sts = group.child_statuses();
  if (options.report != nullptr) {
    RaceReport& rep = *options.report;
    rep.verdict = group.verdict();
    rep.race_id = group.race_id();
    rep.committed = group.count_fate(ChildFate::kCommitted);
    rep.aborted = group.count_fate(ChildFate::kAborted);
    rep.too_late = group.count_fate(ChildFate::kTooLate);
    rep.crashed = group.count_fate(ChildFate::kCrashed);
    rep.hung = group.count_fate(ChildFate::kHung);
    rep.eliminated = group.count_fate(ChildFate::kEliminated);
    rep.over_budget = group.count_fate(ChildFate::kOverBudget);
    rep.predicted_losers = group.count_fate(ChildFate::kPredictedLoser);
    rep.pred_hedged = plan.hedged;
    rep.pred_skipped = plan.skipped;
    rep.forked = static_cast<int>(std::count_if(
        sts.begin(), sts.end(), [](const ChildStatus& st) { return st.pid > 0; }));
    rep.spec = group.speculation_report();
  }
  if (!win.has_value()) return std::nullopt;
  RaceResult<T> r;
  r.value = race_decode<T>(win->result);
  r.winner = (win->index - 1) % n + 1;
  r.pages_absorbed = win->pages_absorbed;
  return r;
}

/// Concurrently executes mutually exclusive alternatives, fastest first.
/// Returns nullopt when all alternatives fail or the timeout expires.
template <RaceSerializable T>
std::optional<RaceResult<T>> race(const std::vector<AlternativeFn<T>>& alts,
                                  const RaceOptions& options = {}) {
  return run_race<T>(alts, options,
                     plan_race(options, static_cast<int>(alts.size())));
}

}  // namespace altx::posix
