// supervised_race: race<T> wrapped in a retry/backoff policy.
//
// race<T> gives the paper's semantics on a cooperative machine; this layer
// gives them on a hostile one. A child that segfaults, hangs past the
// deadline, or loses its commit between token and result is not a failed
// guard — it is an environmental casualty, and (unlike a definitive FAIL,
// where every guard evaluated and said no) another attempt may well win.
// The supervisor:
//
//   1. runs race<T> with RaceOptions::timeout as each attempt's deadline;
//   2. classifies a miss using AltGroup's verdict + fate census:
//        - a winner                         -> return it;
//        - all guards failed, nobody died   -> definitive FAIL, no retry;
//        - crashes / hangs / lost commits /
//          fork() failure                   -> backoff (exponential, with
//                                              deterministic jitter) & retry;
//   3. when attempts are exhausted, returns nullopt; the SupervisionLog
//      names each attempt's outcome. Every alternative runs in a forked
//      arm, never in the caller's process, so a failed guard's side
//      effects never escape the block on any ending.
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
  ///   min(max_backoff, initial_backoff * 2^(k-1))
  /// scaled by a uniform factor in [0.75, 1.25].
  std::chrono::milliseconds initial_backoff{5};
  std::chrono::milliseconds max_backoff{500};

  std::uint64_t seed = 0;  // jitter determinism
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

/// Filled (when supplied) whether or not the supervised race succeeds;
/// attempts.size() is the number of attempts used.
struct SupervisionLog {
  std::vector<AttemptReport> attempts;
};

/// Concurrent alternatives with supervision. Returns nullopt when every
/// guard failed, or when max_attempts attempts were all disrupted, timed
/// out or could not fork (the log says which).
template <RaceSerializable T>
std::optional<RaceResult<T>> supervised_race(
    const std::vector<AlternativeFn<T>>& alts, const RetryPolicy& policy = {},
    RaceOptions options = {}, SupervisionLog* log = nullptr) {
  ALTX_REQUIRE(policy.max_attempts >= 1,
               "supervised_race: need at least one attempt");
  Rng backoff_rng(policy.seed ^ 0xa5a5a5a55a5a5a5aULL);
  if (log != nullptr) *log = SupervisionLog{};

  // Supervisor-level span events get their own trace id; the races spawned
  // by each attempt take fresh ids of their own, linked back through the
  // attempt ordinal stamped into every record (obs::set_attempt).
  const std::uint32_t span_id = obs::next_race_id();
  struct AttemptScope {  // restore on every exit path, including throws
    ~AttemptScope() { obs::set_attempt(0); }
  } attempt_scope;

  std::chrono::milliseconds pending_backoff{0};
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    if (pending_backoff.count() > 0) {
      obs::emit(obs::EventKind::kBackoff, span_id, 0,
                static_cast<std::uint64_t>(attempt),
                static_cast<std::uint64_t>(pending_backoff.count()));
      std::this_thread::sleep_for(pending_backoff);
    }

    RaceReport report;
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
    } else if (spawn_failed) {
      ar.outcome = AttemptOutcome::kSpawnFailed;
    } else if (report.verdict == WaitVerdict::kAllFailed &&
               report.crashed == 0 && report.hung == 0 &&
               report.over_budget == 0) {
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

    // A winner ends the block, and so does FAIL: it is an answer, not an
    // error to retry.
    if (ar.outcome == AttemptOutcome::kWon ||
        ar.outcome == AttemptOutcome::kAllFailed) {
      return r;
    }

    double backoff = static_cast<double>(policy.initial_backoff.count());
    for (int k = 0; k < attempt; ++k) backoff *= 2.0;
    backoff = std::min(backoff, static_cast<double>(policy.max_backoff.count()));
    backoff *= 1.0 + 0.25 * (2.0 * backoff_rng.uniform() - 1.0);
    pending_backoff =
        std::chrono::milliseconds(static_cast<long long>(backoff));
  }
  return std::nullopt;
}

}  // namespace altx::posix
