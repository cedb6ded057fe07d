// Additional resilience scenarios: consensus under node restart and healed
// partitions, distributed blocks with partitioned arbiters, executor
// determinism across repeated runs, and the POSIX supervisor's retry /
// sequential-fallback ladder.
#include <gtest/gtest.h>

#include "consensus/majority.hpp"
#include "core/executor.hpp"
#include "core/workload.hpp"
#include "dist/distributed.hpp"
#include "posix/supervisor.hpp"

namespace altx {
namespace {

TEST(Resilience, ArbiterRestartRemembersNothingButSafetyHolds) {
  // Our arbiters keep their vote in MajoritySync (the protocol object), so a
  // restart models a transient network outage of the node, not amnesia: the
  // vote survives and at-most-once cannot be violated.
  net::Network::Config nc;
  nc.node_count = 5;
  nc.base_latency = 2 * kMsec;
  nc.seed = 3;
  net::Network net(nc);
  consensus::MajoritySync::Config mc;
  mc.arbiters = 3;
  consensus::MajoritySync sync(net, mc);
  sync.add_candidate(0, 3, 0);
  sync.add_candidate(1, 4, kMsec);
  sync.start();
  net.crash(0);
  net.after(2, 100 * kMsec, [&] { net.restart(0); });
  net.run();
  int winners = 0;
  for (const auto& [id, o] : sync.outcomes()) {
    if (o.won) ++winners;
  }
  EXPECT_LE(winners, 1);
  EXPECT_EQ(winners, 1);  // two live arbiters + the restarted one: liveness too
}

TEST(Resilience, HealedPartitionLetsTheElectionFinish) {
  net::Network::Config nc;
  nc.node_count = 4;
  nc.base_latency = 2 * kMsec;
  nc.seed = 5;
  net::Network net(nc);
  consensus::MajoritySync::Config mc;
  mc.arbiters = 3;
  mc.max_rounds = 50;
  consensus::MajoritySync sync(net, mc);
  sync.add_candidate(0, 3, 0);
  sync.start();
  // The candidate starts cut off from two of three arbiters...
  net.partition(3, 0);
  net.partition(3, 1);
  // ...and the links heal later; retries must complete the majority.
  net.after(2, 300 * kMsec, [&] {
    net.heal(3, 0);
    net.heal(3, 1);
  });
  net.run();
  ASSERT_TRUE(sync.winner().has_value());
  EXPECT_GE(sync.outcomes().at(0).decided_at, 300 * kMsec);
}

TEST(Resilience, DistributedBlockSurvivesArbiterPartition) {
  dist::DistConfig cfg;
  cfg.arbiters = 3;
  cfg.timeout = 30 * kSec;
  net::Network::Config nc;
  nc.node_count = 3 + 1 + 2;
  nc.base_latency = 2 * kMsec;
  nc.seed = 7;
  net::Network net(nc);
  dist::DistributedBlock block(
      net, cfg,
      {dist::RemoteAlt{100 * kMsec, true}, dist::RemoteAlt{150 * kMsec, true}});
  block.start();
  // Worker 0 cannot reach arbiter 0; a 2-of-3 majority is still available.
  net.partition(block.worker_node(0), 0);
  net.run();
  EXPECT_TRUE(block.result().committed);
  EXPECT_EQ(block.result().winner, 0);
}

TEST(Resilience, ExecutorRunsAreExactlyRepeatable) {
  core::WorkloadParams p;
  p.n_alternatives = 4;
  p.dist = core::TimeDist::kExponential;
  p.lo = 80 * kMsec;
  auto run_once = [&](std::uint64_t seed) {
    Rng rng(seed);
    const core::BlockSpec b = core::generate_block(p, rng);
    sim::Kernel::Config cfg;
    cfg.machine = sim::MachineModel::shared_memory_mp(2);
    cfg.address_space_pages = 16;
    const auto r = core::run_concurrent(b, cfg);
    return std::tuple{r.elapsed, r.winner, r.stats.cpu_busy,
                      r.stats.wasted_work};
  };
  for (std::uint64_t seed : {2ULL, 4ULL, 8ULL}) {
    EXPECT_EQ(run_once(seed), run_once(seed)) << seed;
  }
}

// ---------------------------------------------------------------------------
// supervised_race: the POSIX backend's recovery ladder
// ---------------------------------------------------------------------------

using namespace std::chrono_literals;

TEST(Resilience, SupervisedRaceRetriesThroughACrashStorm) {
  // Every child of every attempt crashes at its sync point; after
  // max_attempts the supervisor answers nullopt, each attempt logged as
  // disrupted, and the alternative never ran in this process.
  posix::FaultProfile plan;
  plan.crash_segv = 1.0;
  posix::FaultInjector inj(5, plan);
  posix::RaceOptions opts;
  opts.fault = &inj;
  opts.timeout = 500ms;
  posix::RetryPolicy policy;
  policy.max_attempts = 2;
  policy.initial_backoff = 1ms;
  static bool ran = false;
  ran = false;
  posix::SupervisionLog log;
  const auto r = posix::supervised_race<int>(
      {[] { ran = true; return std::optional<int>(31); }}, policy, opts, &log);
  EXPECT_FALSE(r.has_value());
  ASSERT_EQ(log.attempts.size(), 2u);
  EXPECT_EQ(log.attempts[0].outcome, posix::AttemptOutcome::kDisrupted);
  EXPECT_EQ(log.attempts[1].outcome, posix::AttemptOutcome::kDisrupted);
  EXPECT_FALSE(ran);  // set only in the forked arms
}

TEST(Resilience, SupervisedRaceReportsSpawnFailureWhenForkIsImpossible) {
  posix::FaultProfile plan;
  plan.fork_fail = 1.0;  // fork() never succeeds: total resource exhaustion
  posix::FaultInjector inj(5, plan);
  posix::RaceOptions opts;
  opts.fault = &inj;
  posix::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = 1ms;
  static int ran = 0;
  ran = 0;
  posix::SupervisionLog log;
  const auto r = posix::supervised_race<std::string>(
      {
          [] { ++ran; return std::optional<std::string>(); },
          [] { ++ran; return std::optional<std::string>("never-forked"); },
      },
      policy, opts, &log);
  EXPECT_FALSE(r.has_value());
  ASSERT_EQ(log.attempts.size(), 3u);
  for (const auto& a : log.attempts) {
    EXPECT_EQ(a.outcome, posix::AttemptOutcome::kSpawnFailed);
  }
  EXPECT_EQ(ran, 0);  // neither alternative ran in this process
}

TEST(Resilience, SupervisedRaceDoesNotRetryADefinitiveFail) {
  // Every guard evaluates and fails with no environmental casualty: FAIL is
  // the block's answer (the paper's FAIL arm), not an error to retry.
  posix::RetryPolicy policy;
  policy.max_attempts = 5;
  posix::SupervisionLog log;
  const auto r = posix::supervised_race<int>(
      {
          [] { return std::optional<int>(); },
          [] { return std::optional<int>(); },
      },
      policy, {}, &log);
  EXPECT_FALSE(r.has_value());
  ASSERT_EQ(log.attempts.size(), 1u);  // one attempt, no retries
  EXPECT_EQ(log.attempts[0].outcome, posix::AttemptOutcome::kAllFailed);
}

TEST(Resilience, SupervisedRaceFirstAttemptWinStaysUndegraded) {
  posix::SupervisionLog log;
  const auto r = posix::supervised_race<int>(
      {
          [] { return std::optional<int>(1); },
      },
      {}, {}, &log);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 1);
  ASSERT_EQ(log.attempts.size(), 1u);
  EXPECT_EQ(log.attempts[0].outcome, posix::AttemptOutcome::kWon);
}

TEST(Resilience, SupervisedRaceBackoffScheduleIsDeterministic) {
  posix::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = 2ms;
  policy.seed = 77;
  auto run_once = [&] {
    posix::FaultProfile plan;
    plan.crash_kill = 1.0;
    posix::FaultInjector inj(9, plan);
    posix::RaceOptions opts;
    opts.fault = &inj;
    posix::SupervisionLog log;
    const auto r = posix::supervised_race<int>(
        {[] { return std::optional<int>(1); }}, policy, opts, &log);
    EXPECT_FALSE(r.has_value());
    std::vector<long long> backoffs;
    for (const auto& a : log.attempts) {
      backoffs.push_back(a.backoff_before.count());
    }
    return backoffs;
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0], 0);    // no backoff before the first attempt
  EXPECT_GE(first[1], 1);    // jittered exponential afterwards
  EXPECT_LE(first[1], 2);    // 2ms +/- 25%, truncated to whole ms
  EXPECT_GE(first[2], 3);    // 4ms +/- 25%
}

}  // namespace
}  // namespace altx
