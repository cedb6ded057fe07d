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
#pragma once

#include <time.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/bytes.hpp"
#include "obs/history.hpp"
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

template <RaceSerializable T>
Bytes race_encode(const T& value) {
  if constexpr (std::is_same_v<T, Bytes>) {
    return value;
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Bytes(value.begin(), value.end());
  } else {
    Bytes b(sizeof(T));
    std::memcpy(b.data(), &value, sizeof(T));
    return b;
  }
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

/// How a race without a winner ended, plus the per-fate census — what a
/// retry policy needs to decide whether another attempt can possibly help.
/// With Eliminate::kAsynchronous some losers may still be unreaped
/// (kRunning) when this is filled.
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

  /// What the speculation cost: every child's CPU from wait4 at reap time,
  /// the losers' discarded COW pages, and the total/winner overhead ratio.
  SpeculationReport spec;
};

struct RaceOptions {
  std::chrono::milliseconds timeout{10'000};
  Eliminate elimination = Eliminate::kSynchronous;
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
  /// active, every reaped child's wall/CPU/success is folded into the
  /// (site_id, arm) entry. 0 = no history.
  std::uint64_t site_id = 0;

  /// Overrides the arm index recorded into the history store — used by
  /// serialized_race, where a degraded block runs each alternative as its
  /// own single-arm race but the history must still attribute the sample to
  /// the original arm. 0 = derive from the child index.
  std::uint32_t history_arm = 0;

  /// When non-empty, names an altxd Unix socket: server::race() (see
  /// src/server/client.hpp) ships the block to that daemon instead of
  /// forking locally, so a call site redirects by filling this field and
  /// naming its alternatives. posix::race() itself ignores the field — the
  /// redirect lives in the client library, which keeps altx_posix free of a
  /// dependency on the server.
  std::string daemon_socket;

  /// Prediction-driven speculation budgeting (posix/predictor.hpp). Off by
  /// default; `predict = true` plans this race with the env-tuned
  /// (ALTX_PRED_*) config over the current history store, and ALTX_PRED=1
  /// turns planning on process-wide without touching call sites. Either
  /// way a race only plans when site_id is set — the planner has nothing
  /// to read otherwise — and a cold store yields the predict-off plan.
  bool predict = false;

  /// Overrides the planner (tests, the checker's synthetic histories).
  /// Implies planning for this race; must outlive the call.
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

/// Concurrently executes mutually exclusive alternatives, fastest first.
/// Returns nullopt when all alternatives fail or the timeout expires.
template <RaceSerializable T>
std::optional<RaceResult<T>> race(const std::vector<AlternativeFn<T>>& alts,
                                  const RaceOptions& options = {}) {
  ALTX_REQUIRE(!alts.empty(), "race: need at least one alternative");
  ALTX_REQUIRE(options.replicas >= 1, "race: need at least one replica");
  const int n = static_cast<int>(alts.size());

  // Prediction-driven planning. The plan is computed before the forks so
  // its per-arm kill deadlines ride into the group's cohort wait; an
  // inactive plan (cold store, predict off, no site) changes nothing below.
  std::optional<SpeculationPlanner> local_planner;
  const SpeculationPlanner* planner = options.planner;
  if (planner == nullptr) {
    if (options.predict) {
      PredictorConfig pc = PredictorConfig::from_env();
      pc.enabled = true;
      local_planner.emplace(pc, obs::history());
      planner = &*local_planner;
    } else if (SpeculationPlanner::env_enabled()) {
      planner = SpeculationPlanner::global();
    }
  }
  SpeculationPlan plan;
  if (planner != nullptr && options.site_id != 0) {
    SpeculationGovernor* gov = options.governor != nullptr
                                   ? options.governor
                                   : SpeculationGovernor::global();
    plan = planner->plan(options.site_id, n, governor_under_pressure(gov));
  }

  AltGroupOptions go;
  go.elimination = options.elimination;
  go.heap = options.heap;
  go.fault = options.fault;
  go.governor = options.governor;
  // Skipped arms abort unrun but count as live until they are reaped, so
  // when the plan leaves a single contender a deadline on it could fire
  // while a skipped sibling lingers: that contender is the block's last
  // live arm and gets no deadline.
  if (plan.active && (n - plan.skipped) * options.replicas >= 2) {
    go.pred_kill_ns.resize(
        static_cast<std::size_t>(n) *
        static_cast<std::size_t>(options.replicas));
    for (std::size_t j = 0; j < go.pred_kill_ns.size(); ++j) {
      go.pred_kill_ns[j] =
          plan.arms[j % static_cast<std::size_t>(n)].kill_after_ns;
    }
  }
  AltGroup group(go);
  const int who = group.alt_spawn(n * options.replicas);
  if (who > 0) {
    // Child: replicas of alternative a get indices a, a+n, a+2n, ... The
    // child runs the method, then synchronizes (or aborts); it must never
    // return into the caller's world.
    const std::size_t alt_index = static_cast<std::size_t>((who - 1) % n);
    const ArmPlan* ap = plan.active ? &plan.arms[alt_index] : nullptr;
    try {
      if (ap != nullptr && ap->decision == ArmDecision::kSkip) {
        // The plan declined this arm under pressure: its guard is
        // short-circuited to FAIL without the method ever running.
        group.child_abort();
      }
      if (ap != nullptr && ap->decision == ArmDecision::kHedge &&
          ap->stage_after_ns > 0) {
        // Deferred arm (the hedged.hpp stagger discipline): sleep out the
        // leader's predicted quantile. A leader that commits first
        // eliminates this child while it is still asleep — nearly free; a
        // leader that overruns finds its backup already warming up.
        const std::uint64_t us = ap->stage_after_ns / 1000;
        timespec ts{static_cast<time_t>(us / 1'000'000),
                    static_cast<long>(us % 1'000'000 * 1000)};
        ::nanosleep(&ts, nullptr);
        obs::emit(obs::EventKind::kPredStage, group.race_id(),
                  static_cast<std::int16_t>(who), ap->stage_after_ns,
                  ap->predicted_wall_ns);
      }
      const std::optional<T> out = alts[alt_index]();
      if (out.has_value()) group.child_commit(race_encode<T>(*out));
      group.child_abort();
    } catch (...) {
      group.child_abort();
    }
  }
  // Parent side from here (the child paths above never return). One
  // kPredPlan per planned race, active or not, so the trace can tell
  // "predicted, cold store" from "prediction off".
  if (planner != nullptr && options.site_id != 0) {
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
  if (options.site_id != 0) {
    if (obs::HistoryStore* h = obs::history(); h != nullptr) {
      // One sample per reaped arm: wall from the parent's spawn/reap
      // clamps, CPU from the wait4 bill, success = it committed. Replicas
      // fold into their alternative's entry.
      const auto& sts = group.child_statuses();
      for (std::size_t i = 0; i < sts.size(); ++i) {
        const ChildStatus& st = sts[i];
        if (st.fate == ChildFate::kRunning) continue;  // async, unreaped
        if (plan.active) {
          const ArmPlan& ap = plan.arms[i % static_cast<std::size_t>(n)];
          // A skipped arm never ran its method, and a hedged arm that lost
          // spent its wall mostly in the deferral sleep: folding either
          // sample into the history would teach the store that a slow arm
          // is fast — a self-fulfilling prophecy that unravels the plan.
          // Hedged arms still record when they commit (a real observation,
          // and the success the planner needs to see).
          if (ap.decision == ArmDecision::kSkip) continue;
          if (ap.decision == ArmDecision::kHedge &&
              st.fate != ChildFate::kCommitted) {
            continue;
          }
        }
        const std::uint32_t arm =
            options.history_arm != 0
                ? options.history_arm
                : static_cast<std::uint32_t>(i % static_cast<std::size_t>(n)) +
                      1;
        const std::uint64_t wall =
            st.reap_ns > st.spawn_ns ? st.reap_ns - st.spawn_ns : 0;
        h->record(options.site_id, arm, wall, st.usage.cpu_ns,
                  st.fate == ChildFate::kCommitted);
      }
    }
  }
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
    rep.spec = group.speculation_report();
  }
  if (!win.has_value()) return std::nullopt;
  RaceResult<T> r;
  r.value = race_decode<T>(win->result);
  r.winner = (win->index - 1) % n + 1;
  r.pages_absorbed = win->pages_absorbed;
  return r;
}

}  // namespace altx::posix
