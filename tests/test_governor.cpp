// Tests for the SpeculationGovernor (src/posix/governor.*): per-arm wall and
// CPU budgets enforced by the governed cohort wait (in a nested, forked
// block too), SIGTERM→SIGKILL grace escalation, global admission control
// with single-token overdrafts, degradation of denied blocks to serialized
// forked execution, PSI-driven budget shrinking and arm shedding (through
// an ALTX_PSI_PATH-style fixture file), and the bounded in-place fork
// EAGAIN retry against the fork_storm fault.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/error.hpp"
#include "constrained.hpp"
#include "posix/fault.hpp"
#include "posix/governor.hpp"
#include "posix/supervisor.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;

GovernorConfig watchdog_config() {
  GovernorConfig gc;
  return gc;
}

TEST(Governor, WallBudgetOverrunIsKilledAndClassified) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc = watchdog_config();
  gc.arm_wall_budget = 60ms;
  SpeculationGovernor gov(gc);

  RaceReport report;
  RaceOptions opts;
  opts.governor = &gov;
  opts.report = &report;
  opts.timeout = 5'000ms;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = race<int>(
      {[]() -> std::optional<int> { ::usleep(5'000'000); return 1; }}, opts);
  const auto dt = std::chrono::steady_clock::now() - t0;

  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(report.over_budget, 1);
  // Killed by the budget, not by the race timeout.
  EXPECT_LT(dt, 2'000ms);
  EXPECT_GE(gov.stats().kills_wall, 1u);
}

TEST(Governor, CpuBudgetCatchesASpinningArm) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc = watchdog_config();
  gc.arm_cpu_budget = 50ms;
  SpeculationGovernor gov(gc);

  RaceReport report;
  RaceOptions opts;
  opts.governor = &gov;
  opts.report = &report;
  opts.timeout = 10'000ms;
  const auto r = race<int>({[]() -> std::optional<int> {
                             volatile std::uint64_t sink = 1;
                             for (;;) sink = sink * 6364136223846793005ULL + 1;
                             return static_cast<int>(sink);
                           }},
                           opts);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(report.over_budget, 1);
  EXPECT_GE(gov.stats().kills_cpu, 1u);
}

TEST(Governor, SigtermGraceEscalatesToSigkillForDeafArms) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc = watchdog_config();
  gc.arm_wall_budget = 40ms;
  gc.kill_grace = 15ms;
  SpeculationGovernor gov(gc);

  RaceOptions opts;
  opts.governor = &gov;
  opts.timeout = 5'000ms;
  const auto r = race<int>({[]() -> std::optional<int> {
                             ::signal(SIGTERM, SIG_IGN);
                             ::usleep(5'000'000);
                             return 1;
                           }},
                           opts);
  EXPECT_FALSE(r.has_value());
  const GovernorStats st = gov.stats();
  EXPECT_GE(st.kills_wall, 1u);
  EXPECT_GE(st.term_escalations, 1u);  // the SIGTERM was ignored
}

TEST(Governor, CooperativeArmDiesInsideTheGraceWindow) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc = watchdog_config();
  gc.arm_wall_budget = 40ms;
  gc.kill_grace = 200ms;
  SpeculationGovernor gov(gc);

  RaceReport report;
  RaceOptions opts;
  opts.governor = &gov;
  opts.report = &report;
  opts.timeout = 5'000ms;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = race<int>(
      {[]() -> std::optional<int> { ::usleep(5'000'000); return 1; }}, opts);
  const auto dt = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(report.over_budget, 1);
  // SIGTERM's default disposition kills the sleeping child immediately, so
  // the generous grace window must not delay the verdict to its full width.
  EXPECT_LT(dt, 1'000ms);
  EXPECT_EQ(gov.stats().term_escalations, 0u);
}

TEST(Governor, WallBudgetHoldsInsideANestedArm) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  // The budget is enforced by the cohort wait of whichever process races,
  // so a block nested inside a forked arm is held to the budget of a
  // governor built out here.
  GovernorConfig gc;
  gc.arm_wall_budget = 50ms;
  SpeculationGovernor gov(gc);

  RaceOptions outer;
  outer.timeout = 5'000ms;
  const auto t0 = std::chrono::steady_clock::now();
  const auto r = race<int>(
      {[&gov]() -> std::optional<int> {
        RaceReport inner_report;
        RaceOptions inner;
        inner.governor = &gov;
        inner.report = &inner_report;
        inner.timeout = 5'000ms;
        (void)race<int>(
            {[]() -> std::optional<int> { ::usleep(2'000'000); return 1; }},
            inner);
        return inner_report.over_budget;
      }},
      outer);
  const auto dt = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 1);
  EXPECT_LT(dt, 1'000ms);
}

TEST(Governor, MultiArmAdmissionIsDeniedWhenTheBudgetIsBusy) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc;
  gc.tokens = 2;
  gc.admit_wait = 30ms;
  SpeculationGovernor gov(gc);

  // Wider than the base budget can ever serve: denied without queueing.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(gov.admit(3), Admission::kDenied);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 20ms);

  // Fits the budget but the pool is busy: queues for admit_wait, then is
  // denied.
  ASSERT_EQ(gov.admit(1), Admission::kGranted);
  EXPECT_EQ(gov.admit(2), Admission::kDenied);
  const GovernorStats st = gov.stats();
  EXPECT_EQ(st.denied, 2u);
  EXPECT_EQ(st.waited, 0u);  // `waited` counts granted admissions that queued
  EXPECT_EQ(st.in_flight, 1);  // a denial holds nothing
  gov.release(1);
}

TEST(Governor, SingleArmOverdraftsInsteadOfStarving) {
  GovernorConfig gc;
  gc.tokens = 1;
  gc.admit_wait = 20ms;
  gc.serial_admit_wait = 30ms;
  SpeculationGovernor gov(gc);

  ASSERT_EQ(gov.admit(1), Admission::kGranted);  // budget now exhausted
  // n == 1 is the paper's sequential floor: it must eventually run even
  // with the budget occupied — as a sanctioned overdraft, not a denial.
  EXPECT_EQ(gov.admit(1), Admission::kOverdraft);
  const GovernorStats st = gov.stats();
  EXPECT_EQ(st.overdrafts, 1u);
  EXPECT_EQ(st.in_flight, 2);
  EXPECT_EQ(st.max_in_flight, 2);
  gov.release(2);
  EXPECT_EQ(gov.stats().in_flight, 0);
}

TEST(Governor, AdmissionQueueDrainsWhenTokensFree) {
  GovernorConfig gc;
  gc.tokens = 2;
  gc.admit_wait = 2'000ms;
  SpeculationGovernor gov(gc);

  ASSERT_EQ(gov.admit(2), Admission::kGranted);
  std::thread releaser([&] {
    std::this_thread::sleep_for(30ms);
    gov.release(2);
  });
  // Queues behind the busy budget, then gets in well before the deadline.
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(gov.admit(2), Admission::kGranted);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1'000ms);
  releaser.join();
  EXPECT_GE(gov.stats().waited, 1u);
  gov.release(2);
}

TEST(Governor, DeniedBlockDegradesToSerializedAndStaysCorrect) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc;
  gc.tokens = 1;
  gc.admit_wait = 20ms;
  gc.serial_admit_wait = 100ms;
  SpeculationGovernor gov(gc);

  RetryPolicy policy;
  policy.base_timeout = 5'000ms;
  RaceOptions opts;
  opts.governor = &gov;

  // Three arms against one token: concurrent admission is impossible, so
  // the supervisor must degrade to serialized forked arms. The failed
  // guard's side effects stay invisible (it ran in its own process), and
  // the first viable arm in PI order wins.
  static int leaked = 0;
  leaked = 0;
  SupervisionLog log;
  const auto r = supervised_race<int>(
      {[]() -> std::optional<int> { leaked = 99; return std::nullopt; },
       [] { return std::optional<int>(7); },
       [] { return std::optional<int>(8); }},
      policy, opts, &log);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 7);
  EXPECT_EQ(r->winner, 2);
  EXPECT_TRUE(r->degraded);
  EXPECT_TRUE(log.degraded_serialized);
  EXPECT_EQ(leaked, 0);  // the losing arm's write never escaped its fork
  EXPECT_GE(gov.stats().degradations, 1u);
}

TEST(Governor, DegradeDisabledSurfacesTheDenialAsRetries) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc;
  gc.tokens = 1;
  gc.admit_wait = 10ms;
  SpeculationGovernor gov(gc);
  ASSERT_EQ(gov.admit(1), Admission::kGranted);  // keep the budget busy

  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = 1ms;
  policy.governor_degrade = false;
  policy.sequential_fallback = false;
  RaceOptions opts;
  opts.governor = &gov;
  SupervisionLog log;
  const auto r = supervised_race<int>({[] { return std::optional<int>(1); },
                                       [] { return std::optional<int>(2); }},
                                      policy, opts, &log);
  EXPECT_FALSE(r.has_value());
  ASSERT_EQ(log.attempts.size(), 2u);
  for (const auto& a : log.attempts) {
    EXPECT_EQ(a.outcome, AttemptOutcome::kAdmissionDenied);
  }
  gov.release(1);
}

TEST(Governor, PsiPressureShrinksTheEffectiveBudget) {
  GovernorConfig gc;
  gc.tokens = 8;
  gc.psi_shed_pct = 60.0;
  gc.psi_kill_pct = 90.0;
  // Fixture in the kernel's /proc/pressure format, stalled at 75 % — the
  // midpoint of the shed band, so roughly half the budget should remain.
  const std::string path =
      ::testing::TempDir() + "psi_fixture_" + std::to_string(::getpid());
  {
    std::ofstream out(path);
    out << "some avg10=75.00 avg60=12.00 avg300=3.00 total=123456\n"
        << "full avg10=10.00 avg60=1.00 avg300=0.00 total=6543\n";
  }
  gc.psi_path = path;
  SpeculationGovernor gov(gc);
  gov.poll_pressure_now();
  const int eff = gov.effective_tokens();
  EXPECT_LT(eff, 8);
  EXPECT_GE(eff, 1);  // never starves below the sequential floor
  EXPECT_GE(gov.stats().pressure_shrinks, 1u);

  // Pressure clearing restores the full budget.
  {
    std::ofstream out(path);
    out << "some avg10=0.00 avg60=0.00 avg300=0.00 total=123456\n";
  }
  gov.poll_pressure_now();
  EXPECT_EQ(gov.effective_tokens(), 8);
  std::remove(path.c_str());
}

/// A PSI fixture file stalled at `pct` % (kernel /proc/pressure format).
std::string psi_fixture(const std::string& tag, double pct) {
  const std::string path = ::testing::TempDir() + "psi_" + tag + "_" +
                           std::to_string(::getpid());
  std::ofstream out(path);
  out << "some avg10=" << pct << " avg60=12.00 avg300=3.00 total=123456\n";
  return path;
}

TEST(Governor, PressureShedsTheHighestIndexLiveArm) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc;
  gc.psi_path = psi_fixture("shed", 95.0);  // above psi_kill_pct (90)
  gc.pressure_interval = 1'000ms;  // one shed inside the winner's 200 ms
  SpeculationGovernor gov(gc);

  AltGroupOptions go;
  go.governor = &gov;
  AltGroup group(go);
  const int who = group.alt_spawn(3);
  if (who > 0) {
    ::usleep(who == 1 ? 200'000 : 5'000'000);
    group.child_commit(race_encode<int>(who));
  }
  const auto win = group.alt_wait(5'000ms);
  std::remove(gc.psi_path.c_str());
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->index, 1);
  const auto& st = group.child_statuses();
  ASSERT_EQ(st.size(), 3u);
  EXPECT_EQ(st[2].fate, ChildFate::kOverBudget);  // lowest PI: shed
  EXPECT_EQ(st[1].fate, ChildFate::kEliminated);
  EXPECT_GE(gov.stats().kills_shed, 1u);
}

TEST(Governor, PressureNeverShedsASingleArmRace) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  GovernorConfig gc;
  gc.psi_path = psi_fixture("lone", 95.0);
  SpeculationGovernor gov(gc);

  RaceReport report;
  RaceOptions opts;
  opts.governor = &gov;
  opts.report = &report;
  opts.timeout = 5'000ms;
  const auto r = race<int>(
      {[]() -> std::optional<int> { ::usleep(300'000); return 7; }}, opts);
  std::remove(gc.psi_path.c_str());
  // The last live arm is the block's outcome: pressure never takes it.
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 7);
  EXPECT_EQ(report.over_budget, 0);
  EXPECT_EQ(gov.stats().kills_shed, 0u);
}

TEST(Governor, ForkStormIsAbsorbedByInPlaceRetries) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  // fork_storm injects transient EAGAINs that clear after storm_tries
  // attempts; the in-place retry loop must ride them out and still run the
  // block. fork_fail stays permanent and must surface as SystemError.
  FaultProfile storm;
  storm.fork_storm = 1.0;
  storm.storm_tries = 2;
  FaultInjector storm_inj(/*seed=*/7, storm);
  RaceOptions opts;
  opts.fault = &storm_inj;
  const auto r = race<int>({[] { return std::optional<int>(5); }}, opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 5);

  FaultProfile dead;
  dead.fork_fail = 1.0;
  FaultInjector dead_inj(/*seed=*/7, dead);
  RaceOptions dead_opts;
  dead_opts.fault = &dead_inj;
  EXPECT_THROW(race<int>({[] { return std::optional<int>(5); }}, dead_opts),
               SystemError);
}

TEST(Governor, EnvConfigRoundTrip) {
  ::setenv("ALTX_GOV_TOKENS", "6", 1);
  ::setenv("ALTX_GOV_WALL_MS", "1500", 1);
  ::setenv("ALTX_KILL_GRACE_MS", "25", 1);
  ::setenv("ALTX_GOV_PSI_SHED", "50", 1);
  const GovernorConfig gc = GovernorConfig::from_env();
  EXPECT_EQ(gc.tokens, 6);
  EXPECT_EQ(gc.arm_wall_budget, 1'500ms);
  EXPECT_EQ(gc.kill_grace, 25ms);
  EXPECT_DOUBLE_EQ(gc.psi_shed_pct, 50.0);
  EXPECT_TRUE(gc.any_enabled());
  ::unsetenv("ALTX_GOV_TOKENS");
  ::unsetenv("ALTX_GOV_WALL_MS");
  ::unsetenv("ALTX_KILL_GRACE_MS");
  ::unsetenv("ALTX_GOV_PSI_SHED");
  EXPECT_FALSE(GovernorConfig::from_env().any_enabled());
}

}  // namespace
}  // namespace altx::posix
