// Tests for the SpeculationPlanner (src/posix/predictor.*) and the
// prediction wiring through race<T>() and the governed cohort wait: plan
// partitioning over synthetic histories (launch / hedge / skip), staged
// hedges that sleep out the leader's predicted quantile, early kills of
// arms past their own historical kill quantile (ChildFate::kPredictedLoser)
// with the last-live-arm and winner-commit-precedence safety rules, the
// cold-store ≡ predict-off equivalence, and the ALTX_PRED_* env knobs.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "constrained.hpp"
#include "obs/history.hpp"
#include "obs/trace.hpp"
#include "posix/governor.hpp"
#include "posix/predictor.hpp"
#include "posix/race.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;
using obs::EventKind;
using obs::Record;

constexpr std::uint64_t kSite = 0xfeed'0001;
constexpr std::uint64_t kMs = 1'000'000;

/// `samples` identical observations of (wall, success) for one arm — the
/// quantiles collapse to the single bucket, which makes the expected plan
/// easy to state exactly.
void teach(obs::HistoryStore& store, std::uint32_t arm, std::uint64_t wall_ns,
           bool success, int samples = 10) {
  for (int s = 0; s < samples; ++s) {
    store.record(kSite, arm, wall_ns, wall_ns / 2, success);
  }
}

PredictorConfig test_config() {
  PredictorConfig c;
  c.enabled = true;
  return c;
}

int count_kind(const std::vector<Record>& recs, EventKind kind) {
  int n = 0;
  for (const Record& r : recs) n += r.kind == kind ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------- planner

TEST(Predictor, ColdStorePlanIsInactiveAllLaunch) {
  obs::HistoryStore store(64);
  SpeculationPlanner planner(test_config(), &store);
  const SpeculationPlan p = planner.plan(kSite, 3, /*under_pressure=*/false);
  EXPECT_FALSE(p.active);
  EXPECT_EQ(p.launched, 3);
  EXPECT_EQ(p.hedged, 0);
  EXPECT_EQ(p.skipped, 0);
  for (const ArmPlan& a : p.arms) {
    EXPECT_EQ(a.decision, ArmDecision::kLaunch);
    EXPECT_EQ(a.kill_after_ns, 0u);  // no history, never predicted-killed
  }
  // No store at all degenerates the same way.
  SpeculationPlanner storeless(test_config(), nullptr);
  EXPECT_FALSE(storeless.plan(kSite, 3, false).active);
}

TEST(Predictor, FastReliableArmLeadsAndSlowArmIsHedged) {
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, /*success=*/true);
  teach(store, 2, 20 * kMs, /*success=*/false);
  SpeculationPlanner planner(test_config(), &store);
  const SpeculationPlan p = planner.plan(kSite, 2, false);
  ASSERT_TRUE(p.active);
  EXPECT_EQ(p.leader, 1);
  EXPECT_EQ(p.arms[0].decision, ArmDecision::kLaunch);
  EXPECT_EQ(p.arms[1].decision, ArmDecision::kHedge);
  EXPECT_EQ(p.launched, 1);
  EXPECT_EQ(p.hedged, 1);
  // The stage delay is the leader's predicted wall times the slack, and
  // the hedged arm's kill deadline shifts by it (the sleep is not the
  // arm's fault).
  const auto stage = static_cast<std::uint64_t>(
      static_cast<double>(p.arms[0].predicted_wall_ns) * 1.25);
  EXPECT_EQ(p.arms[1].stage_after_ns, stage);
  EXPECT_GT(p.arms[1].kill_after_ns, stage);
  EXPECT_GT(p.arms[0].kill_after_ns, 0u);
  EXPECT_EQ(p.arms[0].stage_after_ns, 0u);
}

TEST(Predictor, ZeroHistoryArmAlwaysLaunches) {
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  SpeculationPlanner planner(test_config(), &store);
  const SpeculationPlan p = planner.plan(kSite, 3, /*under_pressure=*/true);
  ASSERT_TRUE(p.active);
  // Arms 2 and 3 have no samples: exploration demands they run, with no
  // kill deadline — prediction never fires at an arm it knows nothing
  // about.
  for (const std::uint32_t arm : {2u, 3u}) {
    const ArmPlan* a = p.plan_for(arm);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->decision, ArmDecision::kLaunch);
    EXPECT_EQ(a->predicted_wall_ns, 0u);
    EXPECT_EQ(a->kill_after_ns, 0u);
  }
  EXPECT_EQ(p.launched, 3);
}

TEST(Predictor, ArmWithinHedgeRatioLaunchesWithDeadline) {
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 3 * kMs, true);  // 1.5x the leader: well under 4.0
  SpeculationPlanner planner(test_config(), &store);
  const SpeculationPlan p = planner.plan(kSite, 2, false);
  ASSERT_TRUE(p.active);
  EXPECT_EQ(p.arms[1].decision, ArmDecision::kLaunch);
  EXPECT_GT(p.arms[1].kill_after_ns, 0u);
  EXPECT_EQ(p.launched, 2);
}

TEST(Predictor, DominatedArmSkipsOnlyUnderPressureAndWhenEnabled) {
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 20 * kMs, /*success=*/false);  // slow AND never wins
  PredictorConfig cfg = test_config();
  SpeculationPlanner planner(cfg, &store);
  EXPECT_EQ(planner.plan(kSite, 2, false).arms[1].decision,
            ArmDecision::kHedge);
  const SpeculationPlan pressured = planner.plan(kSite, 2, true);
  EXPECT_EQ(pressured.arms[1].decision, ArmDecision::kSkip);
  EXPECT_EQ(pressured.arms[1].kill_after_ns, 0u);  // nothing runs, no kill
  EXPECT_EQ(pressured.skipped, 1);

  cfg.skip_enabled = false;  // the checker's stance: never short-circuit
  SpeculationPlanner no_skip(cfg, &store);
  EXPECT_EQ(no_skip.plan(kSite, 2, true).arms[1].decision,
            ArmDecision::kHedge);
}

TEST(Predictor, SlowButWinningArmIsHedgedNotSkipped) {
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 20 * kMs, /*success=*/true);  // slow but it does win
  SpeculationPlanner planner(test_config(), &store);
  const SpeculationPlan p = planner.plan(kSite, 2, /*under_pressure=*/true);
  EXPECT_EQ(p.arms[1].decision, ArmDecision::kHedge);
}

TEST(Predictor, CensoredLoserWallStillHedges) {
  // A perpetual loser is eliminated the moment the leader commits, so the
  // wall the feedback loop records for it is censored at the leader's own
  // wall — by raw wall the two arms look identical. The partition must
  // compare unreliability-inflated expected costs, or a real workload's
  // always-losing arms would never be hedged at all.
  obs::HistoryStore store(64);
  teach(store, 1, 3 * kMs, true);
  teach(store, 2, 3 * kMs, /*success=*/false);  // same wall: died at commit
  SpeculationPlanner planner(test_config(), &store);
  const SpeculationPlan p = planner.plan(kSite, 2, false);
  ASSERT_TRUE(p.active);
  EXPECT_EQ(p.leader, 1);
  EXPECT_EQ(p.arms[1].decision, ArmDecision::kHedge);
}

TEST(Predictor, LeaderCostIsInflatedByUnreliability) {
  obs::HistoryStore store(64);
  // Arm 1 looks faster per run, but wins one run in ten: 2 ms / 0.1 =
  // 20 ms expected. Arm 2's honest 5 ms makes it the better bet.
  for (int s = 0; s < 10; ++s) {
    store.record(kSite, 1, 2 * kMs, kMs, s == 0);
  }
  teach(store, 2, 5 * kMs, true);
  SpeculationPlanner planner(test_config(), &store);
  EXPECT_EQ(planner.plan(kSite, 2, false).leader, 2);
}

TEST(Predictor, BelowSampleFloorStaysCold) {
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true, /*samples=*/2);  // floor is 3
  SpeculationPlanner planner(test_config(), &store);
  EXPECT_FALSE(planner.plan(kSite, 2, false).active);
}

TEST(Predictor, PlanIsDeterministicGivenFixedHistory) {
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 20 * kMs, false);
  teach(store, 3, 2 * kMs, true);  // exact tie with arm 1: lowest index wins
  SpeculationPlanner planner(test_config(), &store);
  const SpeculationPlan a = planner.plan(kSite, 3, false);
  const SpeculationPlan b = planner.plan(kSite, 3, false);
  EXPECT_EQ(a.leader, 1);  // tie broken to the lowest arm index
  ASSERT_EQ(a.arms.size(), b.arms.size());
  for (std::size_t i = 0; i < a.arms.size(); ++i) {
    EXPECT_EQ(a.arms[i].decision, b.arms[i].decision);
    EXPECT_EQ(a.arms[i].predicted_wall_ns, b.arms[i].predicted_wall_ns);
    EXPECT_EQ(a.arms[i].kill_after_ns, b.arms[i].kill_after_ns);
    EXPECT_EQ(a.arms[i].stage_after_ns, b.arms[i].stage_after_ns);
  }
}

// ------------------------------------------------------------ race wiring

class PredictorRace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::enable_for_test(1 << 14);
    obs::reset();
  }
  void TearDown() override { obs::reset(); }
};

TEST_F(PredictorRace, StagedHedgeIsEliminatedAsleepByAFastLeader) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 50 * kMs, false);
  PredictorConfig cfg = test_config();
  cfg.stage_slack = 40.0;  // stage at 80 ms: the leader commits long before
  SpeculationPlanner planner(cfg, &store);

  RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = kSite;
  opts.planner = &planner;
  RaceReport rep;
  opts.report = &rep;
  const auto r = race<int>(
      {[] { ::usleep(2'000); return std::optional<int>(1); },
       [] { ::usleep(50'000); return std::optional<int>(2); }},
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 1);
  EXPECT_EQ(rep.pred_hedged, 1);
  EXPECT_EQ(rep.eliminated, 1);
  const auto recs = obs::snapshot();
  // The sleeper died before its deferral expired: no kPredStage record,
  // and the plan event says one arm was hedged.
  EXPECT_EQ(count_kind(recs, EventKind::kPredStage), 0);
  bool saw_plan = false;
  for (const Record& rec : recs) {
    if (rec.kind == EventKind::kPredPlan) {
      saw_plan = true;
      EXPECT_EQ(rec.a, 1u);  // launched
      EXPECT_EQ(rec.b, 1u);  // hedged
      EXPECT_EQ(rec.c, 0u);  // skipped
    }
  }
  EXPECT_TRUE(saw_plan);
}

TEST_F(PredictorRace, StagedHedgeFiresWhenTheLeaderOverruns) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 20 * kMs, true);
  PredictorConfig cfg = test_config();
  cfg.stage_slack = 1.0;  // stage right at the leader's predicted quantile
  SpeculationPlanner planner(cfg, &store);

  RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = kSite;
  opts.planner = &planner;
  // History lied: the "fast" leader fails this run, so the staged backup
  // wakes after ~2 ms, runs, and wins the block.
  const auto r = race<int>(
      {[] { ::usleep(1'000); return std::optional<int>(); },
       [] { ::usleep(5'000); return std::optional<int>(7); }},
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 7);
  EXPECT_EQ(r->winner, 2);
  bool staged = false;
  for (const Record& rec : obs::snapshot()) {
    if (rec.kind == EventKind::kPredStage) {
      staged = true;
      EXPECT_EQ(rec.child_index, 2);
      EXPECT_EQ(rec.a, 2 * kMs);       // the deferral it slept
      EXPECT_EQ(rec.b, 20 * kMs);      // its own predicted wall
    }
  }
  EXPECT_TRUE(staged);
}

TEST_F(PredictorRace, OverrunningArmIsKilledAsPredictedLoser) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  obs::HistoryStore store(64);
  teach(store, 1, 5 * kMs, true);   // history: fast — but it hangs this run
  teach(store, 2, 8 * kMs, true);   // within hedge ratio: launches too
  SpeculationPlanner planner(test_config(), &store);

  GovernorConfig gc;
  SpeculationGovernor gov(gc);

  RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = kSite;
  opts.planner = &planner;
  opts.governor = &gov;
  RaceReport rep;
  opts.report = &rep;
  const auto r = race<int>(
      {[] { ::usleep(500'000); return std::optional<int>(1); },
       [] { ::usleep(30'000); return std::optional<int>(2); }},
      opts);
  // Arm 1 blows through its own p99 and is predicted-killed; arm 2 is then
  // the last live arm — spared even though it also overruns its deadline —
  // and goes on to win.
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 2);
  EXPECT_EQ(rep.predicted_losers, 1);
  EXPECT_EQ(rep.committed, 1);
  EXPECT_GE(gov.stats().kills_predicted, 1u);
  const auto recs = obs::snapshot();
  EXPECT_GE(count_kind(recs, EventKind::kPredKill), 1);
}

TEST_F(PredictorRace, NeverKillsTheLastLiveArm) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);  // p99 ≈ 2 ms; the run takes 40 ms
  SpeculationPlanner planner(test_config(), &store);

  GovernorConfig gc;
  SpeculationGovernor gov(gc);

  RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = kSite;
  opts.planner = &planner;
  opts.governor = &gov;
  RaceReport rep;
  opts.report = &rep;
  const auto r = race<int>(
      {[] { ::usleep(40'000); return std::optional<int>(9); }}, opts);
  // Liveness: a single-arm race must always produce its answer, however
  // wrong the prediction was.
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 9);
  EXPECT_EQ(rep.predicted_losers, 0);
  EXPECT_EQ(gov.stats().kills_predicted, 0u);
}

TEST_F(PredictorRace, LastLiveArmIsSparedWhileAnotherRaceRuns) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  // Tracing off: every group's race id is then 0, so a live-arm count kept
  // by race id would lump concurrent races together and take a block's
  // last arm for one of two. The count is the group's own.
  obs::detail::g_enabled = false;
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);  // p99 ≈ 2 ms; the run takes 40 ms
  // A second site whose arm 1 has a 20 ms p99 and runs 60 ms; its cold
  // arm 2 fails at once, so arm 1 is the last live arm at its deadline.
  for (int s = 0; s < 10; ++s) {
    store.record(kSite + 1, 1, 20 * kMs, 10 * kMs, true);
  }
  SpeculationPlanner planner(test_config(), &store);

  GovernorConfig gc;
  SpeculationGovernor gov(gc);

  for (int round = 0; round < 5; ++round) {
    // Thread B: a governed, unplanned race, live through all of A's.
    std::thread b([&gov] {
      RaceOptions ob;
      ob.timeout = 5'000ms;
      ob.governor = &gov;
      (void)race<int>(
          {[] { ::usleep(300'000); return std::optional<int>(1); }}, ob);
    });
    std::this_thread::sleep_for(10ms);  // B's arm is running before A forks

    RaceOptions oa;
    oa.timeout = 5'000ms;
    oa.site_id = kSite;
    oa.planner = &planner;
    oa.governor = &gov;
    RaceReport rep;
    oa.report = &rep;
    const auto r = race<int>(
        {[] { ::usleep(40'000); return std::optional<int>(9); }}, oa);
    ASSERT_TRUE(r.has_value()) << "round " << round;
    EXPECT_EQ(r->value, 9);
    EXPECT_EQ(rep.predicted_losers, 0);

    oa.site_id = kSite + 1;
    const auto r2 = race<int>(
        {[] { ::usleep(60'000); return std::optional<int>(8); },
         [] { return std::optional<int>(); }},
        oa);
    b.join();
    ASSERT_TRUE(r2.has_value()) << "round " << round;
    EXPECT_EQ(r2->value, 8);
    EXPECT_EQ(rep.predicted_losers, 0);
  }
  EXPECT_EQ(gov.stats().kills_predicted, 0u);
  obs::detail::g_enabled = true;
}

TEST_F(PredictorRace, WinnerCommitTakesPrecedenceOverAPredictedKill) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);  // kill deadline ~2 ms; the run takes 20
  SpeculationPlanner planner(test_config(), &store);

  GovernorConfig gc;
  gc.kill_grace = 500ms;  // wide TERM→KILL window for the commit to land in
  SpeculationGovernor gov(gc);

  RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = kSite;
  opts.planner = &planner;
  opts.governor = &gov;
  RaceReport rep;
  opts.report = &rep;
  // Arm 1 shrugs off the SIGTERM and commits inside the grace window; the
  // cold arm 2 keeps the census at two so the kill is even attempted. Same
  // precedence rule as kOverBudget: a commit that won the token is a
  // commit, whatever the governed wait was doing.
  const auto r = race<int>(
      {[]() -> std::optional<int> {
         ::signal(SIGTERM, SIG_IGN);
         ::usleep(20'000);
         return 1;
       },
       []() -> std::optional<int> {
         ::usleep(300'000);
         return std::nullopt;
       }},
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 1);
  EXPECT_EQ(rep.committed, 1);
  EXPECT_EQ(rep.predicted_losers, 0);
}

TEST_F(PredictorRace, ColdStoreRunsIdenticallyToPredictOff) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  obs::HistoryStore store(64);  // empty: every plan inactive
  SpeculationPlanner planner(test_config(), &store);
  const std::vector<AlternativeFn<int>> alts = {
      [] { ::usleep(2'000); return std::optional<int>(1); },
      [] { ::usleep(8'000); return std::optional<int>(2); },
  };

  RaceOptions off;
  off.timeout = 5'000ms;
  RaceReport off_rep;
  off.report = &off_rep;
  const auto r_off = race<int>(alts, off);

  RaceOptions on;
  on.timeout = 5'000ms;
  on.site_id = kSite;
  on.planner = &planner;
  RaceReport on_rep;
  on.report = &on_rep;
  const auto r_on = race<int>(alts, on);

  ASSERT_TRUE(r_off.has_value());
  ASSERT_TRUE(r_on.has_value());
  EXPECT_EQ(r_on->winner, r_off->winner);
  EXPECT_EQ(on_rep.committed, off_rep.committed);
  EXPECT_EQ(on_rep.eliminated, off_rep.eliminated);
  EXPECT_EQ(on_rep.pred_hedged, 0);
  EXPECT_EQ(on_rep.pred_skipped, 0);
  EXPECT_EQ(on_rep.predicted_losers, 0);
  // The trace still marks the race as planned — with everything launched —
  // so "predicted, cold store" is distinguishable from "prediction off".
  bool saw_plan = false;
  for (const Record& rec : obs::snapshot()) {
    if (rec.kind == EventKind::kPredPlan && rec.race_id == on_rep.race_id) {
      saw_plan = true;
      EXPECT_EQ(rec.a, 2u);
      EXPECT_EQ(rec.b, 0u);
      EXPECT_EQ(rec.c, 0u);
    }
  }
  EXPECT_TRUE(saw_plan);
}

TEST_F(PredictorRace, ExactlyOnePredPlanPerPredictedRace) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 20 * kMs, false);
  PredictorConfig cfg = test_config();
  cfg.stage_slack = 40.0;
  SpeculationPlanner planner(cfg, &store);
  RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = kSite;
  opts.planner = &planner;
  for (int i = 0; i < 3; ++i) {
    obs::reset();
    (void)race<int>({[] { ::usleep(2'000); return std::optional<int>(1); },
                     [] { ::usleep(30'000); return std::optional<int>(2); }},
                    opts);
    EXPECT_EQ(count_kind(obs::snapshot(), EventKind::kPredPlan), 1);
  }
}

TEST_F(PredictorRace, PressureSkipAbortsTheArmAndRecordsNoSample) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  // The global test store, so the race's own history loop writes to the
  // same store the planner reads — the no-sample assertion below needs
  // them to be one store.
  obs::HistoryStore& store = *obs::history_enable_for_test(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 20 * kMs, /*success=*/false);  // dominated
  SpeculationPlanner planner(test_config(), &store);

  // A PSI fixture stalled at 75 % shrinks the effective budget below its
  // base — the pressure signal the planner needs before it may skip.
  GovernorConfig gc;
  gc.tokens = 8;
  gc.psi_shed_pct = 60.0;
  gc.psi_kill_pct = 90.0;
  const std::string psi =
      ::testing::TempDir() + "psi_pred_" + std::to_string(::getpid());
  {
    std::ofstream out(psi);
    out << "some avg10=75.00 avg60=12.00 avg300=3.00 total=123456\n";
  }
  gc.psi_path = psi;
  SpeculationGovernor gov(gc);
  gov.poll_pressure_now();
  ASSERT_TRUE(governor_under_pressure(&gov));

  const std::uint32_t before = store.find(kSite, 2)->total;
  RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = kSite;
  opts.planner = &planner;
  opts.governor = &gov;
  RaceReport rep;
  opts.report = &rep;
  const auto r = race<int>(
      {[] { ::usleep(2'000); return std::optional<int>(1); },
       [] { ::usleep(30'000); return std::optional<int>(2); }},
      opts);
  std::remove(psi.c_str());
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 1);
  EXPECT_EQ(rep.pred_skipped, 1);
  EXPECT_EQ(rep.aborted, 1);  // the skip is a guard FAIL, not a kill
  // A skipped arm's instant abort must not poison its history.
  EXPECT_EQ(store.find(kSite, 2)->total, before);
  obs::history_disable_for_test();
}

TEST_F(PredictorRace, HedgeKillDeadlineCountsFromItsLaunch) {
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  obs::HistoryStore store(64);
  teach(store, 1, 2 * kMs, true);
  teach(store, 2, 20 * kMs, false);  // hedged; its p99 is 20 ms
  PredictorConfig cfg = test_config();
  cfg.stage_slack = 10.0;  // starts 20 ms after the block
  SpeculationPlanner planner(cfg, &store);
  const SpeculationPlan plan = planner.plan(kSite, 3, false);
  ASSERT_EQ(plan.arms[1].decision, ArmDecision::kHedge);
  EXPECT_EQ(plan.arms[1].stage_after_ns, 20 * kMs);
  EXPECT_EQ(plan.arms[1].kill_after_ns, 20 * kMs);  // no stage added

  GovernorConfig gc;
  SpeculationGovernor gov(gc);
  RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = kSite;
  opts.planner = &planner;
  opts.governor = &gov;
  RaceReport rep;
  opts.report = &rep;
  // The leader fails at once; the hedge, forked at 20 ms, runs 8 ms — 28 ms
  // after the block began but 8 ms after its own launch, well inside its
  // 20 ms deadline. The cold arm 3 keeps the census above one, so a
  // deadline counted from the block would have killed the hedge.
  const auto r = race<int>(
      {[] { return std::optional<int>(); },
       [] { ::usleep(8'000); return std::optional<int>(2); },
       [] { ::usleep(300'000); return std::optional<int>(); }},
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 2);
  // About the hedge alone: the leader may legitimately be predicted-killed
  // by its own 2 ms deadline when its instant abort is slow to land.
  reap_eliminated();
  int hedge_pred_kills = 0;
  ChildFate hedge_fate = ChildFate::kRunning;
  for (const obs::Record& rec : obs::snapshot()) {
    if (rec.race_id != rep.race_id || rec.child_index != 2) continue;
    if (rec.kind == obs::EventKind::kPredKill) ++hedge_pred_kills;
    if (rec.kind == obs::EventKind::kChildFate) {
      hedge_fate = static_cast<ChildFate>(rec.a);
    }
  }
  EXPECT_EQ(hedge_pred_kills, 0);
  EXPECT_EQ(hedge_fate, ChildFate::kCommitted);
}

TEST(Predictor, GovernorPressureSignal) {
  EXPECT_FALSE(governor_under_pressure(nullptr));
  GovernorConfig gc;
  gc.tokens = 4;
  SpeculationGovernor gov(gc);
  EXPECT_FALSE(governor_under_pressure(&gov));  // full budget: no pressure
}

TEST(Predictor, EnvConfigRoundTrip) {
  ::setenv("ALTX_PRED", "1", 1);
  ::setenv("ALTX_PRED_KILL_Q", "0.9", 1);
  ::setenv("ALTX_PRED_HEDGE_RATIO", "2.5", 1);
  ::setenv("ALTX_PRED_STAGE_SLACK", "2.0", 1);
  ::setenv("ALTX_PRED_MIN_SAMPLES", "5", 1);
  ::setenv("ALTX_PRED_MAX_STAGE_MS", "123", 1);
  const PredictorConfig c = PredictorConfig::from_env();
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.kill_q, 0.9);
  EXPECT_DOUBLE_EQ(c.hedge_ratio, 2.5);
  EXPECT_DOUBLE_EQ(c.stage_slack, 2.0);
  EXPECT_EQ(c.min_samples, 5u);
  EXPECT_EQ(c.max_stage_ms, 123u);
  ::unsetenv("ALTX_PRED");
  ::unsetenv("ALTX_PRED_KILL_Q");
  ::unsetenv("ALTX_PRED_HEDGE_RATIO");
  ::unsetenv("ALTX_PRED_STAGE_SLACK");
  ::unsetenv("ALTX_PRED_MIN_SAMPLES");
  ::unsetenv("ALTX_PRED_MAX_STAGE_MS");
  EXPECT_FALSE(PredictorConfig::from_env().enabled);
}

TEST(Predictor, EnvPredAloneBuildsTheProcessGovernor) {
  // Only a governed group enforces predicted-kill deadlines, so ALTX_PRED=1
  // with no ALTX_GOV_* knob must still yield a process governor. ALTX_PRED
  // is read once per process and the globals it builds govern every later
  // race, so this runs only as the one test of its process, as under ctest.
  if (::testing::UnitTest::GetInstance()->test_to_run_count() != 1) {
    GTEST_SKIP() << "needs a process of its own";
  }
  if (GovernorConfig::from_env().any_enabled()) {
    GTEST_SKIP() << "an ALTX_GOV_* knob builds the governor by itself";
  }
  ::setenv("ALTX_PRED", "1", 1);
  ASSERT_TRUE(SpeculationPlanner::env_enabled());
  EXPECT_NE(SpeculationPlanner::global(), nullptr);
  EXPECT_NE(SpeculationGovernor::global(), nullptr);
  ::unsetenv("ALTX_PRED");
}

}  // namespace
}  // namespace altx::posix
