// The seeded fault matrix for the real-process backend: every injectable
// fault (segfault, SIGKILL, hang, delayed commit, dropped commit, early
// exit, fork-EAGAIN) crossed with every construct (race, race with replicas,
// await_all), asserting in every cell that
//
//   - at most one child ever commits,
//   - the parent ends with zero leaked child processes (waitpid(-1) sweep),
//   - fates and verdicts are classified as documented,
//
// plus the supervised_race acceptance run: 500 trials under a >=30% fault
// plan must each yield the correct winner (or a flagged degraded fallback),
// with a byte-identical outcome sequence when replayed from the same seed.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <vector>

#include "posix/alt_group.hpp"
#include "posix/await_all.hpp"
#include "posix/fault.hpp"
#include "posix/race.hpp"
#include "posix/supervisor.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;

/// Reaps every zombie this process has accumulated; returns how many there
/// were. Zero after any fault-matrix cell is the no-leak invariant.
int sweep_zombies() {
  int n = 0;
  while (true) {
    const pid_t r = ::waitpid(-1, nullptr, WNOHANG);
    if (r <= 0) break;
    ++n;
  }
  return n;
}

FaultProfile single_fault(FaultKind kind, double rate) {
  FaultProfile p;
  switch (kind) {
    case FaultKind::kCrashSegv: p.crash_segv = rate; break;
    case FaultKind::kCrashKill: p.crash_kill = rate; break;
    case FaultKind::kHang: p.hang = rate; break;
    case FaultKind::kDelay: p.delay = rate; break;
    case FaultKind::kEarlyExit: p.early_exit = rate; break;
    case FaultKind::kDropCommit: p.drop_commit = rate; break;
    case FaultKind::kCpuSpin: p.cpu_spin = rate; break;
    case FaultKind::kMemHog: p.mem_hog = rate; break;
    case FaultKind::kNone: break;
  }
  p.delay_for = 10ms;
  return p;
}

/// Three alternatives; only #2 can win (value 7). Deterministic modulo the
/// injected faults, which is what makes the matrix assertions exact.
std::vector<AlternativeFn<int>> one_viable_alts() {
  return {
      [] { return std::optional<int>(); },
      [] { return std::optional<int>(7); },
      [] { return std::optional<int>(); },
  };
}

// ---------------------------------------------------------------------------
// The injector itself: pure, seeded, replayable
// ---------------------------------------------------------------------------

TEST(FaultInjector, DecisionsAreAPureFunctionOfSeedAttemptChild) {
  FaultProfile p;
  p.crash_segv = 0.2;
  p.hang = 0.2;
  p.drop_commit = 0.2;
  const FaultInjector a(1234, p);
  const FaultInjector b(1234, p);
  for (std::uint64_t attempt = 0; attempt < 20; ++attempt) {
    for (int child = 1; child <= 8; ++child) {
      EXPECT_EQ(a.decide(attempt, child), b.decide(attempt, child));
      EXPECT_EQ(a.fork_fails(attempt, child), b.fork_fails(attempt, child));
    }
  }
}

TEST(FaultInjector, DifferentSeedsDisagreeSomewhere) {
  FaultProfile p;
  p.crash_segv = 0.5;
  const FaultInjector a(1, p);
  const FaultInjector b(2, p);
  int differences = 0;
  for (std::uint64_t attempt = 0; attempt < 50; ++attempt) {
    for (int child = 1; child <= 4; ++child) {
      if (a.decide(attempt, child) != b.decide(attempt, child)) ++differences;
    }
  }
  EXPECT_GT(differences, 0);
}

TEST(FaultInjector, RatesRoughlyMatchProbabilities) {
  FaultProfile p;
  p.crash_segv = 0.3;
  const FaultInjector inj(99, p);
  int hits = 0;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) {
    if (inj.decide(static_cast<std::uint64_t>(i), 1) ==
        FaultKind::kCrashSegv) {
      ++hits;
    }
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(FaultInjector, ParsePlanSpec) {
  const FaultProfile p = FaultProfile::parse(
      "crash_segv=0.1,hang=0.05,fork_fail=0.02,delay_ms=15");
  EXPECT_DOUBLE_EQ(p.crash_segv, 0.1);
  EXPECT_DOUBLE_EQ(p.hang, 0.05);
  EXPECT_DOUBLE_EQ(p.fork_fail, 0.02);
  EXPECT_EQ(p.delay_for, 15ms);
  EXPECT_THROW(FaultProfile::parse("nonsense=1"), UsageError);
  EXPECT_THROW(FaultProfile::parse("crash_segv"), UsageError);
  EXPECT_THROW(FaultProfile::parse("crash_segv=banana"), UsageError);
  EXPECT_THROW(FaultProfile::parse("crash_segv="), UsageError);
  EXPECT_THROW(FaultProfile::parse("crash_segv=0.1junk"), UsageError);
}

TEST(FaultInjector, ProfileValidationRejectsBadProbabilities) {
  FaultProfile p;
  p.crash_segv = 0.7;
  p.hang = 0.7;  // sums past 1
  EXPECT_THROW(FaultInjector(1, p), UsageError);
  FaultProfile q;
  q.fork_fail = -0.1;
  EXPECT_THROW(FaultInjector(1, q), UsageError);
}

// ---------------------------------------------------------------------------
// The matrix: fault kind x construct
// ---------------------------------------------------------------------------

struct Cell {
  std::optional<RaceResult<int>> result;
  RaceReport report;
};

Cell run_race_cell(FaultKind kind, double rate, int replicas,
                   std::uint64_t seed) {
  FaultInjector inj(seed, single_fault(kind, rate));
  RaceOptions opts;
  opts.timeout = 150ms;
  opts.replicas = replicas;
  opts.fault = &inj;
  Cell cell;
  opts.report = &cell.report;
  cell.result = race<int>(one_viable_alts(), opts);
  return cell;
}

TEST(FaultMatrix, RaceSurvivesDelay) {
  for (int replicas : {1, 2}) {
    const Cell c = run_race_cell(FaultKind::kDelay, 1.0, replicas, 11);
    ASSERT_TRUE(c.result.has_value()) << "replicas=" << replicas;
    EXPECT_EQ(c.result->value, 7);
    EXPECT_EQ(c.result->winner, 2);
    EXPECT_EQ(c.report.committed, 1);  // at most once, exactly once here
    EXPECT_EQ(sweep_zombies(), 0);
  }
}

TEST(FaultMatrix, RaceFailsClosedUnderCrashes) {
  for (FaultKind kind : {FaultKind::kCrashSegv, FaultKind::kCrashKill,
                         FaultKind::kEarlyExit}) {
    for (int replicas : {1, 2}) {
      const Cell c = run_race_cell(kind, 1.0, replicas, 13);
      EXPECT_FALSE(c.result.has_value())
          << to_string(kind) << " replicas=" << replicas;
      EXPECT_EQ(c.report.verdict, WaitVerdict::kAllFailed);
      EXPECT_EQ(c.report.committed, 0);
      EXPECT_EQ(c.report.crashed, 3 * replicas);
      EXPECT_EQ(sweep_zombies(), 0);
    }
  }
}

TEST(FaultMatrix, RaceTimesOutUnderHangsAndReportsLiveChildren) {
  const Cell c = run_race_cell(FaultKind::kHang, 1.0, 1, 17);
  EXPECT_FALSE(c.result.has_value());
  // The point of the verdict split: this is NOT "all guards failed" — the
  // children were alive and the deadline fired.
  EXPECT_EQ(c.report.verdict, WaitVerdict::kTimeout);
  EXPECT_EQ(c.report.hung, 3);
  EXPECT_EQ(c.report.committed, 0);
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(FaultMatrix, DroppedCommitConsumesTheTokenButNeverCommits) {
  const Cell c = run_race_cell(FaultKind::kDropCommit, 1.0, 1, 19);
  // Child 2 took the token and died before delivering: the block must fail
  // (at-most-once forbids anyone else winning) and the loss must read as a
  // crash, not a guard failure.
  EXPECT_FALSE(c.result.has_value());
  EXPECT_EQ(c.report.verdict, WaitVerdict::kAllFailed);
  EXPECT_EQ(c.report.committed, 0);
  EXPECT_EQ(c.report.crashed, 1);
  EXPECT_EQ(c.report.aborted, 2);  // the failed guards also hit the abort hook
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(FaultMatrix, ReplicasRideOutAPartialCrashPlan) {
  // With 3 alternatives x 2 replicas, children 2 and 5 both run alternative
  // 2 (the only viable one). Search for a seed whose plan crashes replica 2
  // but spares replica 5: the alternative must still win through the
  // surviving replica — the paper's section 6 reliability argument.
  FaultProfile p = single_fault(FaultKind::kCrashSegv, 0.5);
  std::uint64_t seed = 0;
  for (std::uint64_t s = 0;; ++s) {
    const FaultInjector probe(s, p);
    if (probe.decide(0, 2) == FaultKind::kCrashSegv &&
        probe.decide(0, 5) == FaultKind::kNone) {
      seed = s;
      break;
    }
  }
  FaultInjector inj(seed, p);
  RaceOptions opts;
  opts.timeout = 2s;
  opts.replicas = 2;
  opts.fault = &inj;
  RaceReport report;
  opts.report = &report;
  const auto r = race<int>(one_viable_alts(), opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 7);
  EXPECT_EQ(r->winner, 2);
  EXPECT_EQ(report.committed, 1);
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(FaultMatrix, ForkFailureAbortsSpawnCleanly) {
  FaultProfile p;
  p.fork_fail = 1.0;
  FaultInjector inj(23, p);
  RaceOptions opts;
  opts.fault = &inj;
  EXPECT_THROW(race<int>(one_viable_alts(), opts), SystemError);
  EXPECT_EQ(sweep_zombies(), 0);
}

std::vector<AlternativeFn<int>> await_tasks() {
  return {
      [] { return std::optional<int>(1); },
      [] { return std::optional<int>(2); },
      [] { return std::optional<int>(3); },
  };
}

TEST(FaultMatrix, AwaitAllCells) {
  for (FaultKind kind : {FaultKind::kCrashSegv, FaultKind::kCrashKill,
                         FaultKind::kEarlyExit, FaultKind::kDropCommit}) {
    FaultInjector inj(29, single_fault(kind, 1.0));
    AwaitOptions opts;
    opts.timeout = 150ms;
    opts.fault = &inj;
    const auto r = await_all<int>(await_tasks(), opts);
    EXPECT_FALSE(r.has_value()) << to_string(kind);
    EXPECT_EQ(sweep_zombies(), 0) << to_string(kind);
  }
  {
    FaultInjector inj(29, single_fault(FaultKind::kDelay, 1.0));
    AwaitOptions opts;
    opts.timeout = 2s;
    opts.fault = &inj;
    const auto r = await_all<int>(await_tasks(), opts);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sweep_zombies(), 0);
  }
  {
    FaultInjector inj(29, single_fault(FaultKind::kHang, 1.0));
    AwaitOptions opts;
    opts.timeout = 150ms;
    opts.fault = &inj;
    const auto r = await_all<int>(await_tasks(), opts);
    EXPECT_FALSE(r.has_value());
    EXPECT_EQ(sweep_zombies(), 0);
  }
  {
    FaultProfile p;
    p.fork_fail = 1.0;
    FaultInjector inj(29, p);
    AwaitOptions opts;
    opts.fault = &inj;
    EXPECT_THROW(await_all<int>(await_tasks(), opts), SystemError);
    EXPECT_EQ(sweep_zombies(), 0);
  }
}

// ---------------------------------------------------------------------------
// The two reaping bugfixes, pinned
// ---------------------------------------------------------------------------

TEST(AltGroupCohort, MidLoopForkFailureKillsAndReapsThePartialCohort) {
  // Find a seed whose plan forks children 1 and 2 for real and fails the
  // fork of child 3 — the half-spawned state the bugfix is about.
  FaultProfile p;
  p.fork_fail = 0.5;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 0;; ++s) {
    const FaultInjector probe(s, p);
    if (!probe.fork_fails(0, 1) && !probe.fork_fails(0, 2) &&
        probe.fork_fails(0, 3)) {
      seed = s;
      break;
    }
  }
  FaultInjector inj(seed, p);
  AltGroupOptions o;
  o.fault = &inj;
  AltGroup g(o);
  int who = -1;
  try {
    who = g.alt_spawn(3);
  } catch (const SystemError& e) {
    EXPECT_EQ(e.code(), EAGAIN);
    // Children 1 and 2 existed; both must be dead and reaped already.
    EXPECT_EQ(sweep_zombies(), 0);
    return;
  }
  if (who > 0) {
    // A child that was forked before the failure: linger until killed.
    ::sleep(5);
    _exit(0);
  }
  FAIL() << "alt_spawn should have thrown on the injected fork failure";
}

TEST(AltGroupCohort, InjectedSignalDeathsLeaveNoZombieOnAnyPath) {
  // Children die of their own signals at unpredictable moments relative to
  // the parent's poll/kill; every path must still reap everything.
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    FaultInjector inj(seed, single_fault(FaultKind::kCrashKill, 0.7));
    RaceOptions opts;
    opts.timeout = 500ms;
    opts.fault = &inj;
    (void)race<int>(one_viable_alts(), opts);
    EXPECT_EQ(sweep_zombies(), 0) << "seed " << seed;
  }
  // Same under asynchronous elimination, where finish() does the reaping.
  FaultInjector inj(7, single_fault(FaultKind::kCrashSegv, 0.5));
  AltGroupOptions o;
  o.elimination = Eliminate::kAsynchronous;
  o.fault = &inj;
  AltGroup g(o);
  const int who = g.alt_spawn(4);
  if (who > 0) {
    if (who == 2) g.child_commit(Bytes{2});
    ::usleep(200'000);
    g.child_abort();
  }
  (void)g.alt_wait(2s);
  g.finish();
  EXPECT_EQ(sweep_zombies(), 0);
}

// ---------------------------------------------------------------------------
// Fate classification
// ---------------------------------------------------------------------------

TEST(AltGroupFates, EachFateIsClassified) {
  AltGroup g;
  const int who = g.alt_spawn(4);
  if (who == 1) g.child_abort();
  if (who == 2) {
    ::usleep(60'000);  // let 1, 3, 4 reach their fates first
    g.child_commit(Bytes{2});
  }
  if (who == 3) {
    ::sleep(5);  // healthy loser: eliminated after the winner
    g.child_abort();
  }
  if (who == 4) {
    ::raise(SIGKILL);  // a genuine crash, not parent-inflicted
  }
  const auto win = g.alt_wait(5s);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->index, 2);
  EXPECT_EQ(g.verdict(), WaitVerdict::kWinner);
  const auto& st = g.child_statuses();
  ASSERT_EQ(st.size(), 4u);
  EXPECT_EQ(st[0].fate, ChildFate::kAborted);
  EXPECT_EQ(st[1].fate, ChildFate::kCommitted);
  EXPECT_EQ(st[2].fate, ChildFate::kEliminated);
  EXPECT_EQ(st[3].fate, ChildFate::kCrashed);
  EXPECT_EQ(st[3].signal, SIGKILL);
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(AltGroupFates, DeadlineKillReadsAsHungNotEliminated) {
  AltGroup g;
  if (g.alt_spawn(2) > 0) {
    ::sleep(30);
    _exit(0);
  }
  const auto win = g.alt_wait(100ms);
  EXPECT_FALSE(win.has_value());
  EXPECT_EQ(g.verdict(), WaitVerdict::kTimeout);
  EXPECT_EQ(g.count_fate(ChildFate::kHung), 2);
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(AltGroupFates, CollectAllSurvivorsOfAFailureReadAsEliminated) {
  {
    // Child 1 fails at once; 2 and 3 are healthy but slow. The group fails
    // at child 1 and kills 2 and 3 — routine elimination, not a deadline
    // kill.
    AltGroup g;
    const int who = g.alt_spawn(3);
    if (who == 1) g.child_abort();
    if (who > 1) {
      ::sleep(30);
      g.child_deliver(Bytes{static_cast<std::uint8_t>(who)});
    }
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_FALSE(g.alt_wait_all(10s).has_value());
    EXPECT_LT(std::chrono::steady_clock::now() - t0, 5s);
    EXPECT_EQ(g.verdict(), WaitVerdict::kAllFailed);
    const auto& st = g.child_statuses();
    ASSERT_EQ(st.size(), 3u);
    EXPECT_EQ(st[0].fate, ChildFate::kAborted);
    EXPECT_EQ(st[1].fate, ChildFate::kEliminated);
    EXPECT_EQ(st[2].fate, ChildFate::kEliminated);
    EXPECT_EQ(sweep_zombies(), 0);
  }
  {
    // Only a deadline kill reads as hung: child 2 is still running when the
    // deadline passes, and child 1, which delivered, stays committed.
    AltGroup g;
    const int who = g.alt_spawn(2);
    if (who == 1) g.child_deliver(Bytes{1});
    if (who == 2) {
      ::sleep(30);
      g.child_deliver(Bytes{2});
    }
    EXPECT_FALSE(g.alt_wait_all(100ms).has_value());
    EXPECT_EQ(g.verdict(), WaitVerdict::kTimeout);
    const auto& st = g.child_statuses();
    ASSERT_EQ(st.size(), 2u);
    EXPECT_EQ(st[0].fate, ChildFate::kCommitted);
    EXPECT_EQ(st[1].fate, ChildFate::kHung);
    EXPECT_EQ(sweep_zombies(), 0);
  }
}

TEST(AltGroupFates, AllGuardsFailedIsDistinguishedFromTimeout) {
  RaceReport report;
  RaceOptions opts;
  opts.report = &report;
  const auto r = race<int>(
      {
          [] { return std::optional<int>(); },
          [] { return std::optional<int>(); },
      },
      opts);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(report.verdict, WaitVerdict::kAllFailed);
  EXPECT_EQ(report.aborted, 2);
  EXPECT_EQ(report.hung, 0);
  EXPECT_EQ(sweep_zombies(), 0);
}

// ---------------------------------------------------------------------------
// The acceptance run: 500 supervised trials under a >=30% fault plan
// ---------------------------------------------------------------------------

/// One trial's observable outcome, flattened to bytes for the determinism
/// comparison. Child-fate censuses are excluded on purpose: whether a loser
/// aborted before or after the parent's kill is a benign scheduler race;
/// what must replay exactly is every *decision* (win/degrade/retry counts
/// and each attempt's classification).
void run_supervised_trials(std::uint64_t fault_seed, int trials,
                           std::vector<std::uint8_t>& outcome_bytes) {
  FaultProfile plan;
  plan.crash_segv = 0.12;
  plan.crash_kill = 0.08;
  plan.hang = 0.02;
  plan.delay = 0.04;
  plan.early_exit = 0.05;
  plan.drop_commit = 0.05;   // child-side total: 0.36 >= 30%
  plan.fork_fail = 0.05;     // plus parent-side fork failures
  plan.delay_for = 10ms;
  FaultInjector inj(fault_seed, plan);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = 1ms;
  policy.max_backoff = 8ms;
  policy.base_timeout = 150ms;
  policy.seed = 42;

  RaceOptions opts;
  opts.fault = &inj;

  for (int t = 0; t < trials; ++t) {
    SupervisionLog log;
    const auto r =
        supervised_race<int>(one_viable_alts(), policy, opts, &log);
    // Alternative 2 always returns 7; faults may delay or degrade the
    // answer but must never change or lose it.
    ASSERT_TRUE(r.has_value()) << "trial " << t;
    EXPECT_EQ(r->value, 7) << "trial " << t;
    EXPECT_EQ(r->winner, 2) << "trial " << t;
    ASSERT_EQ(sweep_zombies(), 0) << "trial " << t;

    outcome_bytes.push_back(r->degraded ? 1 : 0);
    outcome_bytes.push_back(static_cast<std::uint8_t>(r->attempts));
    outcome_bytes.push_back(static_cast<std::uint8_t>(log.attempts.size()));
    for (const auto& a : log.attempts) {
      outcome_bytes.push_back(static_cast<std::uint8_t>(a.outcome));
    }
    outcome_bytes.push_back(log.fell_back_sequential ? 1 : 0);
  }
}

TEST(SupervisedFaultPlan, FiveHundredTrialsAllRecoverDeterministically) {
  std::vector<std::uint8_t> first;
  run_supervised_trials(/*fault_seed=*/2026, /*trials=*/500, first);

  // Some trials must actually have been disrupted (the plan is >=30%), and
  // some must have survived on the first attempt — otherwise the matrix is
  // not exercising both sides.
  int retried = 0;
  int degraded = 0;
  for (std::size_t i = 0; i + 2 < first.size();) {
    const std::uint8_t deg = first[i];
    const std::uint8_t n_attempts = first[i + 2];
    retried += n_attempts > 1 ? 1 : 0;
    degraded += deg;
    i += 3 + n_attempts + 1;
  }
  EXPECT_GT(retried, 50);
  EXPECT_LT(retried, 500);

  // Byte-identical replay from the same seed.
  std::vector<std::uint8_t> second;
  run_supervised_trials(/*fault_seed=*/2026, /*trials=*/500, second);
  EXPECT_EQ(first, second);
  (void)degraded;  // may legitimately be zero with 3 attempts over 0.36
}

// ---------------------------------------------------------------------------
// ALTX_FAULT_SEED reproducibility
// ---------------------------------------------------------------------------

/// Serialises the deterministic replay signature of a supervised run: per
/// attempt, the supervisor's outcome, the commit count, and the injector's
/// decided fate for every child of that attempt. (The loser-side census —
/// aborted vs eliminated vs too-late — is intentionally excluded: which
/// classification a loser gets races against the winner's elimination kill.)
std::vector<std::uint8_t> supervised_fate_bytes(std::uint64_t fault_seed) {
  FaultProfile plan;
  plan.crash_segv = 0.15;
  plan.crash_kill = 0.05;
  plan.early_exit = 0.05;
  plan.drop_commit = 0.08;
  plan.delay = 0.05;
  plan.delay_for = 5ms;
  FaultInjector inj(fault_seed, plan);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = 1ms;
  policy.max_backoff = 4ms;
  policy.base_timeout = 150ms;
  policy.seed = 7;

  RaceOptions opts;
  opts.fault = &inj;

  std::vector<std::uint8_t> bytes;
  std::uint64_t attempt_id = 0;  // mirrors the injector's begin_attempt()
  for (int t = 0; t < 60; ++t) {
    SupervisionLog log;
    const auto r = supervised_race<int>(one_viable_alts(), policy, opts, &log);
    EXPECT_TRUE(r.has_value()) << "trial " << t;
    for (const auto& a : log.attempts) {
      bytes.push_back(static_cast<std::uint8_t>(a.outcome));
      bytes.push_back(static_cast<std::uint8_t>(a.race.committed));
      for (int child = 1; child <= 3; ++child) {
        bytes.push_back(static_cast<std::uint8_t>(inj.decide(attempt_id, child)));
      }
      ++attempt_id;
      bytes.push_back(0xff);  // attempt separator
    }
  }
  return bytes;
}

TEST(FaultSeedReproducibility, SameSeedAndPlanReplayFateSequencesByteIdentically) {
  const auto first = supervised_fate_bytes(2027);
  const auto second = supervised_fate_bytes(2027);
  EXPECT_EQ(first, second);
  // And the seed actually steers the plan: a different seed diverges.
  EXPECT_NE(first, supervised_fate_bytes(2028));
}

TEST(FaultSeedReproducibility, FromEnvBuildsIdenticalInjectors) {
  ::setenv("ALTX_FAULT_PLAN",
           "crash_segv=0.15,drop_commit=0.1,delay=0.1,delay_ms=2", 1);
  ::setenv("ALTX_FAULT_SEED", "777", 1);
  const auto a = FaultInjector::from_env();
  const auto b = FaultInjector::from_env();
  ::unsetenv("ALTX_FAULT_PLAN");
  ::unsetenv("ALTX_FAULT_SEED");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->seed(), 777u);
  for (std::uint64_t attempt = 0; attempt < 32; ++attempt) {
    for (int child = 1; child <= 6; ++child) {
      EXPECT_EQ(a->decide(attempt, child), b->decide(attempt, child));
      EXPECT_EQ(a->fork_fails(attempt, child), b->fork_fails(attempt, child));
    }
  }
}

}  // namespace
}  // namespace altx::posix
