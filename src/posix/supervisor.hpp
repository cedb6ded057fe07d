// supervised_race: race<T> wrapped in a retry/backoff/fallback policy.
//
// race<T> gives the paper's semantics on a cooperative machine; this layer
// gives them on a hostile one. A child that segfaults, hangs past the
// deadline, or loses its commit between token and result is not a failed
// guard — it is an environmental casualty, and (unlike a definitive FAIL,
// where every guard evaluated and said no) another attempt may well win.
// The supervisor:
//
//   1. runs race<T> with a per-attempt deadline from the policy's schedule;
//   2. classifies a miss using AltGroup's verdict + fate census:
//        - a winner                         -> return it;
//        - all guards failed, nobody died   -> definitive FAIL, no retry;
//        - crashes / hangs / lost commits /
//          fork() failure                   -> backoff (exponential, with
//                                              deterministic jitter) & retry;
//   3. when attempts are exhausted — or spawning was impossible every time —
//      degrades gracefully: the alternatives run *sequentially, in-process*
//      (the paper's original sequential semantics), and the result is
//      flagged `degraded`. Sequential mode trades the fork isolation away:
//      side effects of a failed guard are no longer contained, and the fault
//      injector (which lives at the child sync points) is not consulted.
//
// Governance: a SpeculationGovernor never refuses a block. Granted k of its
// n tokens, the block runs as one group k arms at a time, with its
// original arm indices and one deadline (posix/alt_group.hpp); granted
// none, it waits for one token and at worst overdrafts one. So admission
// adds no outcome here: an attempt is judged like any other.
//
// Every retry decision and every jittered backoff is deterministic from
// RetryPolicy::seed and the injected fault plan, so a supervised fault
// matrix replays byte-identically.
#pragma once

#include <thread>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "posix/race.hpp"

namespace altx::posix {

struct RetryPolicy {
  int max_attempts = 3;

  /// Backoff before retry k (1-based) is
  ///   min(max_backoff, initial_backoff * multiplier^(k-1))
  /// scaled by a uniform factor in [1-jitter, 1+jitter].
  std::chrono::milliseconds initial_backoff{5};
  double multiplier = 2.0;
  double jitter = 0.25;
  std::chrono::milliseconds max_backoff{500};

  /// Per-attempt deadline schedule: attempt k (0-based) gets
  ///   min(max_timeout, base_timeout * timeout_growth^k)
  /// — growing deadlines stop a tight schedule from starving slow-but-live
  /// alternatives on every attempt.
  std::chrono::milliseconds base_timeout{10'000};
  double timeout_growth = 1.0;
  std::chrono::milliseconds max_timeout{60'000};

  std::uint64_t seed = 0;  // jitter determinism

  /// Run the alternatives sequentially in-process when every attempt fails
  /// for environmental reasons. Disable to surface the failure instead.
  bool sequential_fallback = true;

  [[nodiscard]] std::chrono::milliseconds attempt_timeout(int attempt) const {
    double t = static_cast<double>(base_timeout.count());
    for (int k = 0; k < attempt; ++k) t *= timeout_growth;
    t = std::min(t, static_cast<double>(max_timeout.count()));
    return std::chrono::milliseconds(static_cast<long long>(t));
  }
};

enum class AttemptOutcome : std::uint8_t {
  kWon,          // race returned a winner
  kAllFailed,    // definitive FAIL: every guard evaluated and failed
  kDisrupted,    // crashes / hangs / lost commits and no winner
  kTimeout,      // deadline passed with live children
  kSpawnFailed,  // fork() failed (genuinely or by injection)
};

inline const char* to_string(AttemptOutcome o) {
  switch (o) {
    case AttemptOutcome::kWon: return "won";
    case AttemptOutcome::kAllFailed: return "all_failed";
    case AttemptOutcome::kDisrupted: return "disrupted";
    case AttemptOutcome::kTimeout: return "timeout";
    case AttemptOutcome::kSpawnFailed: return "spawn_failed";
  }
  return "?";
}

struct AttemptReport {
  AttemptOutcome outcome = AttemptOutcome::kAllFailed;
  RaceReport race;  // verdict + fate census (empty for kSpawnFailed)
  std::chrono::milliseconds backoff_before{0};  // slept before this attempt
};

/// Filled (when supplied) whether or not the supervised race succeeds.
struct SupervisionLog {
  std::vector<AttemptReport> attempts;
  bool fell_back_sequential = false;
};

template <typename T>
struct SupervisedResult {
  T value{};
  int winner = 0;        // 1-based alternative index
  int attempts = 1;      // attempts consumed, including the deciding one
  bool degraded = false; // produced by the in-process sequential fallback
  std::size_t pages_absorbed = 0;
};

/// Concurrent alternatives with supervision. Returns nullopt only when the
/// block definitively fails: every guard failed, or every recovery avenue
/// (retries, then the sequential fallback) was exhausted without a value.
template <RaceSerializable T>
std::optional<SupervisedResult<T>> supervised_race(
    const std::vector<AlternativeFn<T>>& alts, const RetryPolicy& policy = {},
    RaceOptions options = {}, SupervisionLog* log = nullptr) {
  ALTX_REQUIRE(policy.max_attempts >= 1,
               "supervised_race: need at least one attempt");
  ALTX_REQUIRE(policy.jitter >= 0.0 && policy.jitter <= 1.0,
               "supervised_race: jitter must be in [0, 1]");
  Rng backoff_rng(policy.seed ^ 0xa5a5a5a55a5a5a5aULL);
  if (log != nullptr) *log = SupervisionLog{};

  // Supervisor-level span events get their own trace id; the races spawned
  // by each attempt take fresh ids of their own, linked back through the
  // attempt ordinal stamped into every record (obs::set_attempt).
  const std::uint32_t span_id = obs::next_race_id();
  struct AttemptScope {  // restore on every exit path, including throws
    ~AttemptScope() { obs::set_attempt(0); }
  } attempt_scope;

  auto sequential = [&]() -> std::optional<SupervisedResult<T>> {
    if (log != nullptr) log->fell_back_sequential = true;
    obs::emit(obs::EventKind::kSequentialFallback, span_id, 0,
              static_cast<std::uint64_t>(alts.size()));
    if (obs::enabled()) {
      obs::MetricsRegistry::global().counter("supervisor_fallbacks").add();
    }
    for (std::size_t i = 0; i < alts.size(); ++i) {
      try {
        const std::optional<T> out = alts[i]();
        if (out.has_value()) {
          SupervisedResult<T> r;
          r.value = *out;
          r.winner = static_cast<int>(i) + 1;
          r.attempts = policy.max_attempts;
          r.degraded = true;
          return r;
        }
      } catch (...) {
        // A throwing guard is a failed guard, as in race().
      }
    }
    return std::nullopt;
  };

  std::chrono::milliseconds pending_backoff{0};
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (pending_backoff.count() > 0) {
      obs::emit(obs::EventKind::kBackoff, span_id, 0,
                static_cast<std::uint64_t>(attempt),
                static_cast<std::uint64_t>(pending_backoff.count()));
      std::this_thread::sleep_for(pending_backoff);
    }

    RaceReport report;
    options.timeout = policy.attempt_timeout(attempt);
    options.report = &report;
    obs::set_attempt(static_cast<std::uint32_t>(attempt));
    obs::emit(obs::EventKind::kAttemptBegin, span_id, 0,
              static_cast<std::uint64_t>(attempt),
              static_cast<std::uint64_t>(options.timeout.count()));
    if (obs::enabled() && attempt > 0) {
      obs::MetricsRegistry::global().counter("supervisor_retries").add();
    }

    AttemptReport ar;
    ar.backoff_before = pending_backoff;
    std::optional<RaceResult<T>> r;
    bool spawn_failed = false;
    try {
      r = race<T>(alts, options);
    } catch (const SystemError&) {
      // fork() (or a pipe) failed — resource exhaustion is exactly the
      // transient condition backoff exists for.
      spawn_failed = true;
    }
    ar.race = report;

    if (r.has_value()) {
      ar.outcome = AttemptOutcome::kWon;
      obs::emit(obs::EventKind::kAttemptEnd, span_id, 0,
                static_cast<std::uint64_t>(attempt),
                static_cast<std::uint64_t>(ar.outcome));
      if (log != nullptr) log->attempts.push_back(ar);
      SupervisedResult<T> out;
      out.value = std::move(r->value);
      out.winner = r->winner;
      out.attempts = attempt + 1;
      out.pages_absorbed = r->pages_absorbed;
      return out;
    }

    const bool clean_fail = !spawn_failed &&
                            report.verdict == WaitVerdict::kAllFailed &&
                            report.crashed == 0 && report.hung == 0 &&
                            report.over_budget == 0;
    if (spawn_failed) {
      ar.outcome = AttemptOutcome::kSpawnFailed;
    } else if (clean_fail) {
      ar.outcome = AttemptOutcome::kAllFailed;
    } else if (report.verdict == WaitVerdict::kTimeout) {
      ar.outcome = AttemptOutcome::kTimeout;
    } else {
      ar.outcome = AttemptOutcome::kDisrupted;
    }
    obs::emit(obs::EventKind::kAttemptEnd, span_id, 0,
              static_cast<std::uint64_t>(attempt),
              static_cast<std::uint64_t>(ar.outcome));
    if (log != nullptr) log->attempts.push_back(ar);

    if (clean_fail) return std::nullopt;  // FAIL is an answer, not an error

    double backoff = static_cast<double>(policy.initial_backoff.count());
    for (int k = 0; k < attempt; ++k) backoff *= policy.multiplier;
    backoff = std::min(backoff, static_cast<double>(policy.max_backoff.count()));
    backoff *= 1.0 + policy.jitter * (2.0 * backoff_rng.uniform() - 1.0);
    pending_backoff = std::chrono::milliseconds(
        static_cast<long long>(std::max(0.0, backoff)));
  }

  if (!policy.sequential_fallback) return std::nullopt;
  return sequential();
}

}  // namespace altx::posix
