// Trace completeness under injected faults.
//
// The observability contract the tentpole promises: a fault-injected run
// with tracing enabled leaves a COMPLETE story in the shared ring — every
// child the parent ever forked has exactly one terminal fate event, that
// fate agrees with AltGroup's own classification, and this holds whatever
// the seeded injector does to the children (SIGKILL, SIGSEGV, hangs,
// dropped commits, early exits), including across supervised_race retries.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <map>
#include <set>
#include <tuple>

#include "constrained.hpp"
#include "obs/history.hpp"
#include "obs/phase.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "posix/await_all.hpp"
#include "posix/fault.hpp"
#include "posix/governor.hpp"
#include "posix/predictor.hpp"
#include "posix/race.hpp"
#include "posix/supervisor.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;
using obs::EventKind;
using obs::Record;

int sweep_zombies() {
  int n = 0;
  while (::waitpid(-1, nullptr, WNOHANG) > 0) ++n;
  return n;
}

/// Three alternatives with distinct speeds; only #2 viable. 10 ms of sleep
/// per child gives every injected hang/delay room to matter.
std::vector<AlternativeFn<int>> one_viable_alts() {
  return {
      [] { ::usleep(2'000); return std::optional<int>(); },
      [] { ::usleep(4'000); return std::optional<int>(7); },
      [] { ::usleep(6'000); return std::optional<int>(); },
  };
}

/// The await_all counterpart: three tasks that all succeed when unfaulted.
std::vector<AlternativeFn<int>> three_tasks() {
  return {
      [] { ::usleep(2'000); return std::optional<int>(1); },
      [] { ::usleep(4'000); return std::optional<int>(2); },
      [] { ::usleep(6'000); return std::optional<int>(3); },
  };
}

/// Per-(race, child) census of one trace snapshot.
struct TraceCensus {
  std::map<std::uint32_t, std::set<int>> forked;  // race -> children forked
  std::map<std::pair<std::uint32_t, int>, std::vector<std::uint64_t>> fates;
  std::map<std::uint32_t, const Record*> decided;

  explicit TraceCensus(const std::vector<Record>& recs) {
    for (const Record& r : recs) {
      if (r.kind == EventKind::kFork) {
        forked[r.race_id].insert(r.child_index);
      } else if (r.kind == EventKind::kChildFate) {
        fates[{r.race_id, r.child_index}].push_back(r.a);
      } else if (r.kind == EventKind::kRaceDecided) {
        decided[r.race_id] = &r;
      }
    }
  }
};

/// The core assertion: every forked child of every race has exactly one
/// terminal fate event, and no fate exists for a child never forked.
void assert_complete(const std::vector<Record>& recs) {
  TraceCensus c(recs);
  for (const auto& [race, children] : c.forked) {
    EXPECT_NE(race, 0u);
    for (const int child : children) {
      const auto it = c.fates.find({race, child});
      ASSERT_NE(it, c.fates.end())
          << "race " << race << " child " << child << ": no fate event";
      EXPECT_EQ(it->second.size(), 1u)
          << "race " << race << " child " << child << ": duplicate fates";
      EXPECT_NE(static_cast<ChildFate>(it->second.front()),
                ChildFate::kRunning);
    }
    // Every race that forked also reached a verdict.
    EXPECT_TRUE(c.decided.contains(race)) << "race " << race << " undecided";
  }
  for (const auto& [key, v] : c.fates) {
    EXPECT_TRUE(c.forked.contains(key.first) &&
                c.forked.at(key.first).contains(key.second))
        << "fate for a child never forked";
  }
}

/// Census of trace fates for one race must equal the report's census.
void assert_agrees(const std::vector<Record>& recs, const RaceReport& rep) {
  std::map<ChildFate, int> trace_counts;
  for (const Record& r : recs) {
    if (r.kind == EventKind::kChildFate) {
      ++trace_counts[static_cast<ChildFate>(r.a)];
    }
  }
  EXPECT_EQ(trace_counts[ChildFate::kCommitted], rep.committed);
  EXPECT_EQ(trace_counts[ChildFate::kAborted], rep.aborted);
  EXPECT_EQ(trace_counts[ChildFate::kTooLate], rep.too_late);
  EXPECT_EQ(trace_counts[ChildFate::kCrashed], rep.crashed);
  EXPECT_EQ(trace_counts[ChildFate::kHung], rep.hung);
  EXPECT_EQ(trace_counts[ChildFate::kEliminated], rep.eliminated);
  EXPECT_EQ(trace_counts[ChildFate::kPredictedLoser], rep.predicted_losers);
  // And the recorded verdict is the group's verdict.
  for (const Record& r : recs) {
    if (r.kind == EventKind::kRaceDecided) {
      EXPECT_EQ(static_cast<WaitVerdict>(r.a), rep.verdict);
    }
  }
}

class TraceCompleteness : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::enable_for_test(1 << 14);
    obs::reset();
  }
  void TearDown() override {
    EXPECT_EQ(sweep_zombies(), 0);
    obs::reset();
  }
};

TEST_F(TraceCompleteness, CleanRace) {
  RaceOptions opts;
  opts.timeout = 5'000ms;
  RaceReport rep;
  opts.report = &rep;
  const auto r = race<int>(one_viable_alts(), opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 7);
  const auto recs = obs::snapshot();
  assert_complete(recs);
  assert_agrees(recs, rep);
  // One race, three forks, one winner.
  TraceCensus c(recs);
  ASSERT_EQ(c.forked.size(), 1u);
  EXPECT_EQ(c.forked.begin()->second.size(), 3u);
}

TEST_F(TraceCompleteness, EveryFaultKindLeavesACompleteTrace) {
  const struct { FaultKind kind; double rate; } plans[] = {
      {FaultKind::kCrashSegv, 0.6}, {FaultKind::kCrashKill, 0.6},
      {FaultKind::kHang, 0.6},      {FaultKind::kDelay, 0.6},
      {FaultKind::kEarlyExit, 0.6}, {FaultKind::kDropCommit, 0.6},
  };
  for (const auto& plan : plans) {
    FaultProfile p;
    switch (plan.kind) {
      case FaultKind::kCrashSegv: p.crash_segv = plan.rate; break;
      case FaultKind::kCrashKill: p.crash_kill = plan.rate; break;
      case FaultKind::kHang: p.hang = plan.rate; break;
      case FaultKind::kDelay: p.delay = plan.rate; break;
      case FaultKind::kEarlyExit: p.early_exit = plan.rate; break;
      case FaultKind::kDropCommit: p.drop_commit = plan.rate; break;
      case FaultKind::kCpuSpin: p.cpu_spin = plan.rate; break;
      case FaultKind::kMemHog: p.mem_hog = plan.rate; break;
      case FaultKind::kNone: break;
    }
    p.delay_for = 10ms;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      obs::reset();
      FaultInjector inj(seed, p);
      RaceOptions opts;
      opts.timeout = 300ms;
      opts.fault = &inj;
      RaceReport rep;
      opts.report = &rep;
      (void)race<int>(one_viable_alts(), opts);
      const auto recs = obs::snapshot();
      assert_complete(recs);
      assert_agrees(recs, rep);
      EXPECT_EQ(sweep_zombies(), 0);
      // await_all is a collect-all AltGroup: the same story, one kChildFate
      // per forked task, under the same fault plan.
      obs::reset();
      AwaitOptions await_opts;
      await_opts.timeout = 300ms;
      await_opts.fault = &inj;
      (void)await_all<int>(three_tasks(), await_opts);
      const auto await_recs = obs::snapshot();
      assert_complete(await_recs);
      EXPECT_EQ(TraceCensus(await_recs).forked.size(), 1u);  // it was traced
      EXPECT_EQ(sweep_zombies(), 0);
    }
  }
}

TEST_F(TraceCompleteness, PredictedKillsPairWithTerminalFatesUnderEveryFaultKind) {
  // The predictor's additions to the story must stay complete under the same
  // fault matrix: every predicted race tells its plan exactly once, every
  // kPredKill names a child that was really forked and that still reached
  // exactly one terminal fate, and every kPredictedLoser fate is explained
  // by a kill event. Histories of 1 ms against arms that sleep 2–6 ms (or
  // hang outright) make the early-kill path fire constantly.
  ALTX_SKIP_IF_CONSTRAINED(8, 256);
  constexpr std::uint64_t kSite = 0x7ace'0001;
  constexpr std::uint64_t kMs = 1'000'000;
  const struct { FaultKind kind; double rate; } plans[] = {
      {FaultKind::kCrashSegv, 0.6}, {FaultKind::kCrashKill, 0.6},
      {FaultKind::kHang, 0.6},      {FaultKind::kDelay, 0.6},
      {FaultKind::kEarlyExit, 0.6}, {FaultKind::kDropCommit, 0.6},
  };
  bool saw_pred_kill = false;
  for (const auto& plan : plans) {
    FaultProfile p;
    switch (plan.kind) {
      case FaultKind::kCrashSegv: p.crash_segv = plan.rate; break;
      case FaultKind::kCrashKill: p.crash_kill = plan.rate; break;
      case FaultKind::kHang: p.hang = plan.rate; break;
      case FaultKind::kDelay: p.delay = plan.rate; break;
      case FaultKind::kEarlyExit: p.early_exit = plan.rate; break;
      case FaultKind::kDropCommit: p.drop_commit = plan.rate; break;
      case FaultKind::kCpuSpin: p.cpu_spin = plan.rate; break;
      case FaultKind::kMemHog: p.mem_hog = plan.rate; break;
      case FaultKind::kNone: break;
    }
    p.delay_for = 10ms;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      obs::reset();
      obs::HistoryStore store(64);
      for (std::uint32_t arm = 1; arm <= 3; ++arm) {
        for (int s = 0; s < 10; ++s) {
          store.record(kSite, arm, 1 * kMs, kMs / 2, true);
        }
      }
      PredictorConfig pc;
      pc.enabled = true;
      SpeculationPlanner planner(pc, &store);
      GovernorConfig gc;
      gc.predict_watch = true;  // every arm registers: exact live census
      SpeculationGovernor gov(gc);
      FaultInjector inj(seed, p);
      RaceOptions opts;
      opts.timeout = 300ms;
      opts.fault = &inj;
      opts.site_id = kSite;
      opts.planner = &planner;
      opts.governor = &gov;
      RaceReport rep;
      opts.report = &rep;
      (void)race<int>(one_viable_alts(), opts);
      const auto recs = obs::snapshot();
      assert_complete(recs);
      assert_agrees(recs, rep);

      TraceCensus c(recs);
      std::map<std::pair<std::uint32_t, int>, int> pred_kills;
      std::map<std::uint32_t, int> pred_plans;
      for (const Record& r : recs) {
        if (r.kind == EventKind::kPredKill) {
          ++pred_kills[{r.race_id, r.child_index}];
        } else if (r.kind == EventKind::kPredPlan) {
          ++pred_plans[r.race_id];
        }
      }
      for (const auto& [race, children] : c.forked) {
        EXPECT_EQ(pred_plans[race], 1)
            << "race " << race << ": plan told " << pred_plans[race]
            << " times";
      }
      for (const auto& [key, n] : pred_kills) {
        saw_pred_kill = true;
        ASSERT_TRUE(c.forked.contains(key.first) &&
                    c.forked.at(key.first).contains(key.second))
            << "kPredKill for a child never forked";
        ASSERT_TRUE(c.fates.contains(key))
            << "race " << key.first << " child " << key.second
            << ": killed but no terminal fate";
        EXPECT_EQ(c.fates.at(key).size(), 1u);
      }
      for (const auto& [key, fates] : c.fates) {
        if (static_cast<ChildFate>(fates.front()) ==
            ChildFate::kPredictedLoser) {
          EXPECT_TRUE(pred_kills.contains(key))
              << "race " << key.first << " child " << key.second
              << ": predicted-loser fate without a kPredKill";
        }
      }
      EXPECT_EQ(sweep_zombies(), 0);
    }
  }
  // 30 seeded runs of 1 ms quantiles against 2–6 ms arms: the kill path must
  // actually have fired, or the pairing assertions above were all vacuous.
  EXPECT_TRUE(saw_pred_kill);
}

TEST_F(TraceCompleteness, SupervisedRetriesStayComplete) {
  // A hostile plan forces retries (and sometimes the sequential fallback);
  // every attempt's race must still tell a complete story, and the attempt
  // ordinal must link each race's records to its supervisor attempt.
  FaultProfile p;
  p.crash_kill = 0.5;
  p.hang = 0.2;
  FaultInjector inj(/*seed=*/99, p);

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = 1ms;
  policy.max_backoff = 2ms;
  policy.base_timeout = 300ms;
  policy.seed = 99;

  RaceOptions opts;
  opts.timeout = 300ms;
  opts.fault = &inj;

  for (int trial = 0; trial < 10; ++trial) {
    obs::reset();
    (void)supervised_race<int>(one_viable_alts(), policy, opts);
    const auto recs = obs::snapshot();
    assert_complete(recs);

    // Attempts pair up, and each forked race carries one attempt ordinal.
    std::set<std::uint64_t> begun;
    std::set<std::uint64_t> ended;
    std::map<std::uint32_t, std::set<std::uint32_t>> attempts_of_race;
    for (const Record& r : recs) {
      if (r.kind == EventKind::kAttemptBegin) begun.insert(r.a);
      if (r.kind == EventKind::kAttemptEnd) ended.insert(r.a);
      if (r.kind == EventKind::kFork) {
        attempts_of_race[r.race_id].insert(r.attempt);
      }
    }
    EXPECT_EQ(begun, ended);
    for (const auto& [race, atts] : attempts_of_race) {
      EXPECT_EQ(atts.size(), 1u)
          << "race " << race << " spans multiple attempts";
    }
    EXPECT_EQ(sweep_zombies(), 0);
  }
}

/// Phase-span discipline: parent-side spans always pair (the parent is
/// never killed), child-side spans may dangle (a SIGKILL between begin and
/// end) but an end can never outnumber its begins, and the critical-path
/// reducer still attributes nearly all of every decided race's wall time —
/// whatever the injector does to the children.
void assert_phases_pair(const std::vector<Record>& recs) {
  // (race, child, phase) -> [begins, ends]
  std::map<std::tuple<std::uint32_t, int, std::uint64_t>, std::pair<int, int>>
      spans;
  for (const Record& r : recs) {
    if (r.kind == EventKind::kPhaseBegin) {
      ++spans[{r.race_id, r.child_index, r.a}].first;
    } else if (r.kind == EventKind::kPhaseEnd) {
      ++spans[{r.race_id, r.child_index, r.a}].second;
      EXPECT_LT(r.a, static_cast<std::uint64_t>(obs::kPhaseCount));
    }
  }
  for (const auto& [key, counts] : spans) {
    const auto& [race, child, phase] = key;
    if (child == 0) {
      EXPECT_EQ(counts.first, counts.second)
          << "race " << race << " parent phase " << phase
          << ": begin/end mismatch";
    } else {
      EXPECT_LE(counts.second, counts.first)
          << "race " << race << " child " << child << " phase " << phase
          << ": end without begin";
    }
  }
  for (const auto& [id, b] : obs::reduce_critical_path(recs)) {
    if (!b.decided || b.wall_ns == 0) continue;
    EXPECT_GE(b.coverage(), 0.90) << "race " << id << ": phases cover only "
                                  << b.coverage() * 100.0 << "% of wall";
    EXPECT_NE(b.dominant(), obs::Phase::kNone) << "race " << id;
  }
}

TEST_F(TraceCompleteness, PhaseSpansPairUnderEveryFaultKind) {
  const struct { FaultKind kind; double rate; } plans[] = {
      {FaultKind::kCrashSegv, 0.6}, {FaultKind::kCrashKill, 0.6},
      {FaultKind::kHang, 0.6},      {FaultKind::kDelay, 0.6},
      {FaultKind::kEarlyExit, 0.6}, {FaultKind::kDropCommit, 0.6},
  };
  for (const auto& plan : plans) {
    FaultProfile p;
    switch (plan.kind) {
      case FaultKind::kCrashSegv: p.crash_segv = plan.rate; break;
      case FaultKind::kCrashKill: p.crash_kill = plan.rate; break;
      case FaultKind::kHang: p.hang = plan.rate; break;
      case FaultKind::kDelay: p.delay = plan.rate; break;
      case FaultKind::kEarlyExit: p.early_exit = plan.rate; break;
      case FaultKind::kDropCommit: p.drop_commit = plan.rate; break;
      case FaultKind::kCpuSpin: p.cpu_spin = plan.rate; break;
      case FaultKind::kMemHog: p.mem_hog = plan.rate; break;
      case FaultKind::kNone: break;
    }
    p.delay_for = 10ms;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      obs::reset();
      FaultInjector inj(seed, p);
      RaceOptions opts;
      opts.timeout = 300ms;
      opts.fault = &inj;
      (void)race<int>(one_viable_alts(), opts);
      assert_phases_pair(obs::snapshot());
      EXPECT_EQ(sweep_zombies(), 0);
      obs::reset();
      AwaitOptions await_opts;
      await_opts.timeout = 300ms;
      await_opts.fault = &inj;
      (void)await_all<int>(three_tasks(), await_opts);
      assert_phases_pair(obs::snapshot());
      EXPECT_EQ(sweep_zombies(), 0);
    }
  }
}

TEST_F(TraceCompleteness, ReplicatedRaceTracesEveryReplica) {
  FaultProfile p;
  p.crash_kill = 0.4;
  FaultInjector inj(/*seed=*/7, p);
  RaceOptions opts;
  opts.timeout = 2'000ms;
  opts.fault = &inj;
  opts.replicas = 2;
  RaceReport rep;
  opts.report = &rep;
  (void)race<int>(one_viable_alts(), opts);
  const auto recs = obs::snapshot();
  assert_complete(recs);
  assert_agrees(recs, rep);
  TraceCensus c(recs);
  ASSERT_EQ(c.forked.size(), 1u);
  EXPECT_EQ(c.forked.begin()->second.size(), 6u);  // 3 alts x 2 replicas
}

TEST_F(TraceCompleteness, TraceIdStampsEveryRecordIncludingKilledChildren) {
  // The ambient cross-process trace id is inherited through fork, so even a
  // child the injector SIGKILLs mid-flight leaves records carrying the id —
  // its last gasp is still attributable after a stitch. The id is also on
  // the parent's post-mortem records (kChildFate, kRaceDecided).
  FaultProfile p;
  p.crash_kill = 0.6;
  p.hang = 0.2;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    obs::reset();  // clears the ambient id too — re-arm after, not before
    const std::uint64_t trace = obs::mint_trace_id();
    ASSERT_NE(trace, 0u);
    obs::set_current_trace(trace);
    EXPECT_EQ(obs::current_trace(), trace);
    FaultInjector inj(seed, p);
    RaceOptions opts;
    opts.timeout = 300ms;
    opts.fault = &inj;
    (void)race<int>(one_viable_alts(), opts);
    obs::set_current_trace(0);
    const auto recs = obs::snapshot();
    ASSERT_FALSE(recs.empty());
    bool child_record = false;
    for (const Record& r : recs) {
      EXPECT_EQ(r.trace_id, trace)
          << to_string(r.kind) << " from child " << r.child_index
          << " lost the trace id";
      if (r.child_index != 0) child_record = true;
    }
    EXPECT_TRUE(child_record) << "no child-side records to check";
    assert_complete(recs);
  }
}

TEST_F(TraceCompleteness, UntracedRacesStampZero) {
  // With no ambient id armed, records carry trace 0 — the exporters and the
  // per-trace reducer treat that as "local, group by race_id".
  RaceOptions opts;
  opts.timeout = 5'000ms;
  (void)race<int>(one_viable_alts(), opts);
  const auto recs = obs::snapshot();
  ASSERT_FALSE(recs.empty());
  for (const Record& r : recs) EXPECT_EQ(r.trace_id, 0u);
}

/// Burn CPU (not wall): ITIMER_PROF only ticks while the arm is on-CPU.
void spin_cpu_ms(long ms) {
  volatile std::uint64_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now() - t0)
             .count() < ms) {
    for (int i = 0; i < 512; ++i) sink = sink + static_cast<std::uint64_t>(i);
  }
}

TEST_F(TraceCompleteness, ProfilerSamplesSurviveElimination) {
  obs::prof_enable(997);
  // The winner burns ~60 ms of CPU before committing, so both losers accrue
  // well over the kernel's ITIMER_PROF quantum (~4 ms at CONFIG_HZ=250)
  // before the SIGKILL lands mid-spin — their samples must already be in
  // the shared ring when they die.
  RaceOptions opts;
  opts.timeout = 10'000ms;
  const auto r = race<int>(
      {
          [] { spin_cpu_ms(60); return std::optional<int>(1); },
          [] { spin_cpu_ms(2'000); return std::optional<int>(2); },
          [] { spin_cpu_ms(2'000); return std::optional<int>(3); },
      },
      opts);
  obs::profdetail::g_prof_enabled = false;  // don't sample later tests
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 1);

  const auto recs = obs::snapshot();
  std::set<int> eliminated;
  std::map<int, int> samples;  // child -> kProfSample fragments
  for (const Record& rec : recs) {
    if (rec.kind == EventKind::kChildFate &&
        static_cast<ChildFate>(rec.a) == ChildFate::kEliminated) {
      eliminated.insert(rec.child_index);
    } else if (rec.kind == EventKind::kProfSample) {
      ++samples[rec.child_index];
      EXPECT_GE(obs::prof_total_fragments(rec.c), 1);
      EXPECT_LT(obs::prof_fragment(rec.c), obs::prof_total_fragments(rec.c));
    }
  }
  ASSERT_EQ(eliminated.size(), 2u);  // both spinning losers were SIGKILLed
  for (const int child : eliminated) {
    EXPECT_GE(samples[child], 1)
        << "child " << child << " was sampled for tens of ms of CPU but "
        << "left no kProfSample in the ring";
  }
  assert_complete(recs);
}

// ---- cross-hop reduction over a synthetic stitched trace ----------------

Record rec(std::uint64_t t_ns, std::uint32_t node, EventKind kind,
           std::uint64_t trace, std::uint64_t a = 0, std::uint64_t b = 0) {
  Record r;
  r.t_ns = t_ns;
  r.node_id = node;
  r.kind = kind;
  r.trace_id = trace;
  r.a = a;
  r.b = b;
  return r;
}

TEST(CrossHopReduction, TilesClientWallWithDaemonPhasesAndRpc) {
  // A stitched two-ring trace of one job: the client (node 0) brackets the
  // wall, the daemon/worker (node 1) contributes admission stamps and
  // phase spans. Timestamps share one monotonic clock, as on one host.
  const std::uint64_t T = 0xabcdef01ULL;
  const auto queue = static_cast<std::uint64_t>(obs::Phase::kSrvQueue);
  const auto arm = static_cast<std::uint64_t>(obs::Phase::kArmRun);
  const std::vector<Record> recs = {
      rec(1'000, 0, EventKind::kRaceBegin, T),
      rec(1'200, 1, EventKind::kSrvSubmit, T),  // 200 ns submit hop
      rec(1'200, 1, EventKind::kPhaseBegin, T, queue),
      rec(1'500, 1, EventKind::kPhaseEnd, T, queue, 300),
      rec(1'500, 1, EventKind::kPhaseBegin, T, arm),
      rec(2'300, 1, EventKind::kPhaseEnd, T, arm, 800),
      rec(2'400, 1, EventKind::kSrvResult, T),  // 200 ns reply hop
      rec(2'600, 0, EventKind::kRaceDecided, T),
  };
  const auto by_trace = obs::reduce_critical_path_by_trace(recs);
  ASSERT_EQ(by_trace.size(), 1u);
  const obs::PhaseBreakdown& b = by_trace.at(T);
  EXPECT_TRUE(b.decided);
  EXPECT_EQ(b.wall_ns, 1'600u);  // client begin → client decided
  EXPECT_EQ(b.phase_ns[static_cast<int>(obs::Phase::kSrvQueue)], 300u);
  EXPECT_EQ(b.phase_ns[static_cast<int>(obs::Phase::kArmRun)], 800u);
  EXPECT_EQ(b.rpc_ns, 400u);  // both wire legs, named rather than residue
  EXPECT_EQ(b.attributed_ns(), 1'500u);
  EXPECT_DOUBLE_EQ(b.coverage(), 1'500.0 / 1'600.0);
  EXPECT_EQ(b.dangling_begins, 0u);
}

TEST(CrossHopReduction, SpanSplitAcrossRingsIsNotDangling) {
  // Satellite regression: a span whose begin landed in one ring and end in
  // another (the worker died mid-handoff and the daemon closed it) is one
  // cross-hop span, not a dangling begin plus an orphan end.
  const std::uint64_t T = 0x1234ULL;
  const auto queue = static_cast<std::uint64_t>(obs::Phase::kSrvQueue);
  const std::vector<Record> recs = {
      rec(100, 0, EventKind::kRaceBegin, T),
      rec(150, 0, EventKind::kPhaseBegin, T, queue),  // begin: client ring
      rec(400, 1, EventKind::kPhaseEnd, T, queue, 250),  // end: daemon ring
      rec(500, 0, EventKind::kRaceDecided, T),
  };
  const auto by_trace = obs::reduce_critical_path_by_trace(recs);
  ASSERT_EQ(by_trace.size(), 1u);
  EXPECT_EQ(by_trace.at(T).dangling_begins, 0u);

  // A begin with no end anywhere still counts.
  const std::vector<Record> trunc = {
      rec(100, 0, EventKind::kRaceBegin, T),
      rec(150, 1, EventKind::kPhaseBegin, T, queue),
      rec(500, 0, EventKind::kRaceDecided, T),
  };
  EXPECT_EQ(obs::reduce_critical_path_by_trace(trunc).at(T).dangling_begins,
            1u);
}

TEST(CrossHopReduction, DaemonOnlyTraceHasNoRpcLeg) {
  // Without the client's bracket the outermost interval is the worker's
  // own race; the admission stamps lie outside it and must not inflate
  // attribution.
  const std::uint64_t T = 0x77ULL;
  const auto arm = static_cast<std::uint64_t>(obs::Phase::kArmRun);
  const std::vector<Record> recs = {
      rec(900, 1, EventKind::kSrvSubmit, T),  // before the race interval
      rec(1'000, 1, EventKind::kRaceBegin, T),
      rec(1'800, 1, EventKind::kPhaseEnd, T, arm, 700),
      rec(2'000, 1, EventKind::kRaceDecided, T),
      rec(2'100, 1, EventKind::kSrvResult, T),  // after it
  };
  const auto by_trace = obs::reduce_critical_path_by_trace(recs);
  const obs::PhaseBreakdown& b = by_trace.at(T);
  EXPECT_EQ(b.wall_ns, 1'000u);
  EXPECT_EQ(b.rpc_ns, 0u);
  EXPECT_EQ(b.attributed_ns(), 700u);
}

}  // namespace
}  // namespace altx::posix
