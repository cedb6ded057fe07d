// Stress and failure-injection tests for the real-process backend: crashing
// alternatives, replication, nested races, large payloads, descriptor
// hygiene over many races, and many-way races.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <dirent.h>

#include <chrono>

#include "constrained.hpp"
#include "obs/history.hpp"
#include "posix/alt_heap.hpp"
#include "posix/await_all.hpp"
#include "posix/governor.hpp"
#include "posix/predictor.hpp"
#include "posix/race.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;

int dir_entry_count(const char* path) {
  int n = 0;
  DIR* d = ::opendir(path);
  if (d == nullptr) return -1;
  while (::readdir(d) != nullptr) ++n;
  ::closedir(d);
  return n;
}

int open_fd_count() { return dir_entry_count("/proc/self/fd"); }
int thread_count() { return dir_entry_count("/proc/self/task"); }

TEST(PosixStress, CrashingAlternativeIsJustAFailure) {
  // A child dying of SIGSEGV (no AltHeap installed, so no handler rescues
  // it) must count as a failed alternative, not poison the block.
  auto r = race<int>({
      []() -> std::optional<int> {
        ::raise(SIGSEGV);
        return 1;  // unreachable
      },
      [] { ::usleep(20'000); return std::optional<int>(2); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 2);
}

TEST(PosixStress, AllAlternativesCrashingFailsCleanly) {
  auto r = race<int>({
      []() -> std::optional<int> { ::raise(SIGKILL); return 1; },
      []() -> std::optional<int> { ::abort(); },
  });
  EXPECT_FALSE(r.has_value());
}

TEST(PosixStress, ReplicationSurvivesACrashingReplica) {
  // One logical alternative, three replicas; the "hardware" kills the first
  // replica (deterministically by pid parity is not possible, so crash by
  // a shared pipe token: the first replica to grab the token crashes).
  AltHeap heap(2);
  auto* crash_budget = heap.at<int>(0);
  *crash_budget = 1;  // exactly one replica will crash
  RaceOptions opts;
  opts.replicas = 3;
  // NOTE: the heap is deliberately NOT passed to opts; each replica still
  // inherits the arena COW, so decrementing the budget is process-local.
  // Instead we crash based on replica timing: the earliest finisher crashes.
  auto r = race<int>(
      {
          [&]() -> std::optional<int> {
            // Simulate an unreliable node: every replica rolls its own fate
            // from its pid.
            if (::getpid() % 3 == 0) ::raise(SIGKILL);
            ::usleep(10'000);
            return 7;
          },
      },
      opts);
  // With three replicas, P(all crash) is small but possible depending on
  // pids; accept either verdict but require correctness when found.
  if (r.has_value()) {
    EXPECT_EQ(r->value, 7);
    EXPECT_EQ(r->winner, 1);  // logical alternative index, not replica index
  }
}

TEST(PosixStress, ReplicatedAlternativesMapBackToLogicalIndex) {
  RaceOptions opts;
  opts.replicas = 2;
  auto r = race<int>(
      {
          [] { ::usleep(100'000); return std::optional<int>(1); },
          [] { ::usleep(5'000); return std::optional<int>(2); },
          [] { ::usleep(100'000); return std::optional<int>(3); },
      },
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 2);
  EXPECT_EQ(r->value, 2);
}

TEST(PosixStress, NestedRacesInsideAlternatives) {
  // The tree of computations: an alternative is itself an alternative block.
  auto inner = []() -> std::optional<int> {
    auto r = race<int>({
        [] { ::usleep(5'000); return std::optional<int>(10); },
        [] { ::usleep(50'000); return std::optional<int>(20); },
    });
    if (!r.has_value()) return std::nullopt;
    return r->value + 1;
  };
  auto r = race<int>({
      inner,
      [] { ::usleep(500'000); return std::optional<int>(99); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 11);
  EXPECT_EQ(r->winner, 1);
}

TEST(PosixStress, LargeResultPayloadCrossesThePipe) {
  // Larger than any pipe buffer: 4 MB.
  const std::size_t n = 4 * 1024 * 1024;
  auto r = race<std::string>({
      [n] {
        std::string s(n, 'x');
        s[n - 1] = 'y';
        return std::optional<std::string>(std::move(s));
      },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value.size(), n);
  EXPECT_EQ(r->value.back(), 'y');
}

TEST(PosixStress, ManyConsecutiveRacesLeakNoDescriptors) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/32, /*address_mb=*/256);
  // Warm up, then assert the fd count is stable across 40 rounds of every
  // block shape — winner, all-fail, timeout, asynchronous elimination,
  // await_all (won and failed), and governed kills (wall budget, predicted,
  // SIGTERM grace) — so every per-child result pipe and pidfd is shown to
  // close on every path. The thread count is taken before the governors
  // are built: governing a block starts no thread.
  (void)race<int>({[] { return std::optional<int>(0); }});
  const int threads_before = thread_count();
  ASSERT_GT(threads_before, 0);
  GovernorConfig wall_cfg;
  wall_cfg.arm_wall_budget = 5ms;
  SpeculationGovernor wall_gov(wall_cfg);
  GovernorConfig grace_cfg = wall_cfg;
  grace_cfg.kill_grace = 20ms;
  SpeculationGovernor grace_gov(grace_cfg);
  GovernorConfig pred_cfg;
  pred_cfg.predict_watch = true;
  SpeculationGovernor pred_gov(pred_cfg);
  obs::HistoryStore store(64);
  constexpr std::uint64_t kSite = 0x57e55;
  for (int s = 0; s < 10; ++s) store.record(kSite, 1, 1'000'000, 500'000, true);
  PredictorConfig pc;
  pc.enabled = true;
  SpeculationPlanner planner(pc, &store);
  const int before = open_fd_count();
  ASSERT_GT(before, 0);
  RaceOptions timeout;
  timeout.timeout = 5ms;
  RaceOptions async;
  async.elimination = Eliminate::kAsynchronous;
  RaceOptions wall;
  wall.governor = &wall_gov;
  RaceOptions grace;
  grace.governor = &grace_gov;
  RaceOptions pred;
  pred.governor = &pred_gov;
  pred.site_id = kSite;
  pred.planner = &planner;
  RaceReport pred_report;
  pred.report = &pred_report;
  for (int i = 0; i < 40; ++i) {
    auto r = race<int>({
        [i] { return std::optional<int>(i); },
        [i] { ::usleep(2'000); return std::optional<int>(i + 100); },
    });
    ASSERT_TRUE(r.has_value());
    EXPECT_FALSE(race<int>({
                               [] { return std::optional<int>(); },
                               [] { return std::optional<int>(); },
                           })
                     .has_value());
    EXPECT_FALSE(race<int>({[] { ::sleep(10); return std::optional<int>(1); }},
                           timeout)
                     .has_value());
    EXPECT_TRUE(race<int>(
                    {
                        [] { return std::optional<int>(1); },
                        [] { ::sleep(10); return std::optional<int>(2); },
                    },
                    async)
                    .has_value());
    EXPECT_TRUE(await_all<int>({
                                   [i] { return std::optional<int>(i); },
                                   [i] { return std::optional<int>(i + 1); },
                               })
                    .has_value());
    EXPECT_FALSE(await_all<int>({
                                    [] {
                                      ::sleep(10);
                                      return std::optional<int>(1);
                                    },
                                    [] { return std::optional<int>(); },
                                })
                     .has_value());
    EXPECT_FALSE(
        race<int>({[] { ::sleep(10); return std::optional<int>(1); }}, wall)
            .has_value());
    EXPECT_FALSE(
        race<int>({[] { ::sleep(10); return std::optional<int>(1); }}, grace)
            .has_value());
    // Arm 1's history says 1 ms; it sleeps instead and is predicted-killed
    // while the cold arm 2 lives on to win.
    EXPECT_TRUE(race<int>(
                    {
                        [] { ::sleep(10); return std::optional<int>(1); },
                        [] { ::usleep(50'000); return std::optional<int>(2); },
                    },
                    pred)
                    .has_value());
    EXPECT_EQ(pred_report.predicted_losers, 1);
  }
  EXPECT_EQ(open_fd_count(), before);
  EXPECT_EQ(thread_count(), threads_before);
  EXPECT_EQ(wall_gov.stats().kills_wall, 40u);
  EXPECT_EQ(grace_gov.stats().kills_wall, 40u);
  EXPECT_EQ(pred_gov.stats().kills_predicted, 40u);
}

TEST(PosixStress, SixteenWayRace) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/48, /*address_mb=*/256);
  std::vector<AlternativeFn<int>> alts;
  for (int i = 0; i < 16; ++i) {
    alts.push_back([i]() -> std::optional<int> {
      ::usleep(static_cast<useconds_t>((i % 5) * 3000));
      if (i % 4 == 0) return std::nullopt;  // a quarter fail their guards
      return i;
    });
  }
  auto r = race<int>(alts);
  ASSERT_TRUE(r.has_value());
  EXPECT_NE(r->value % 4, 0);
  EXPECT_EQ(r->value, r->winner - 1);
}

TEST(PosixStress, AsynchronousEliminationReapsInFinish) {
  RaceOptions opts;
  opts.elimination = Eliminate::kAsynchronous;
  for (int i = 0; i < 10; ++i) {
    auto r = race<int>(
        {
            [] { return std::optional<int>(1); },
            [] { ::sleep(10); return std::optional<int>(2); },
        },
        opts);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->value, 1);
  }
  // Destructors reaped the async corpses: no zombie accumulation. If they
  // leaked, the process table would fill and later forks fail; reaching here
  // with forks still working is the assertion.
  auto again = race<int>({[] { return std::optional<int>(5); }});
  ASSERT_TRUE(again.has_value());
}

TEST(PosixStress, HeapAbsorptionWithManyDirtyPages) {
  ALTX_SKIP_IF_CONSTRAINED(/*procs=*/8, /*address_mb=*/512);
  AltHeap heap(256);
  RaceOptions opts;
  opts.heap = &heap;
  auto r = race<int>(
      {
          [&]() -> std::optional<int> {
            for (std::size_t p = 0; p < 256; p += 2) {
              heap.at<std::uint64_t>(p * heap.page_size())[0] = p;
            }
            return 1;
          },
      },
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pages_absorbed, 128u);
  EXPECT_EQ(heap.at<std::uint64_t>(10 * heap.page_size())[0], 10u);
  EXPECT_EQ(heap.at<std::uint64_t>(11 * heap.page_size())[0], 0u);
}

TEST(PosixStress, TimeoutWithHeapLeavesArenaUntouched) {
  AltHeap heap(4);
  heap.at<std::uint64_t>(0)[0] = 42;
  RaceOptions opts;
  opts.heap = &heap;
  opts.timeout = 80ms;
  auto r = race<int>(
      {
          [&]() -> std::optional<int> {
            heap.at<std::uint64_t>(0)[0] = 666;
            ::sleep(30);
            return 1;
          },
      },
      opts);
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(heap.at<std::uint64_t>(0)[0], 42u);
}

}  // namespace
}  // namespace altx::posix
