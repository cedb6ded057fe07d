// Per-arm runtime histories: the (site, arm) store that feeds
// prediction-driven budgeting.
//
// What matters: quantiles interpolate instead of reporting bucket upper
// bounds, snapshots round-trip byte-for-byte through tmp+rename, a full
// table drops samples instead of aborting races, and race<T>() with a
// site_id actually attributes every reaped arm.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>

#include "obs/history.hpp"
#include "posix/race.hpp"

namespace altx::obs {
namespace {

using namespace std::chrono_literals;

std::string tmp_snapshot_path() {
  return "/tmp/altx_history_test_" + std::to_string(::getpid()) + ".bin";
}

TEST(SiteHash, StableNonzeroAndLineSensitive) {
  constexpr std::uint64_t a = site_hash("src/x.cpp", 10);
  constexpr std::uint64_t b = site_hash("src/x.cpp", 11);
  constexpr std::uint64_t c = site_hash("src/y.cpp", 10);
  static_assert(a != 0, "0 is the no-site sentinel");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, site_hash("src/x.cpp", 10));  // stable across calls
  const std::uint64_t here = ALTX_SITE();
  EXPECT_NE(here, 0u);
}

TEST(History, RecordsAccumulateEwmaAndExtremes) {
  HistoryStore h(64);
  const std::uint64_t site = site_hash("t", 1);
  h.record(site, 1, 1'000, 500, true);
  h.record(site, 1, 2'000, 700, false);
  const ArmStats* s = h.find(site, 1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total, 2u);
  EXPECT_EQ(s->successes, 1u);
  EXPECT_DOUBLE_EQ(s->success_rate(), 0.5);
  EXPECT_EQ(s->min_wall_ns, 1'000u);
  EXPECT_EQ(s->max_wall_ns, 2'000u);
  // First sample initializes the EWMA; the second folds at alpha = 0.2.
  EXPECT_DOUBLE_EQ(s->ewma_wall_ns, 1'000.0 * 0.8 + 2'000.0 * 0.2);
  EXPECT_EQ(h.find(site, 2), nullptr);
  EXPECT_EQ(h.find(site_hash("t", 2), 1), nullptr);
}

TEST(History, QuantilesInterpolateWithinBuckets) {
  HistoryStore h(64);
  const std::uint64_t site = site_hash("t", 2);
  // Identical samples: whatever the bucket span says, clamping to the
  // observed [min, max] must pin every quantile to the one true value.
  for (int i = 0; i < 100; ++i) h.record(site, 1, 5'000, 0, true);
  EXPECT_EQ(h.quantile(site, 1, 0.5), 5'000u);
  EXPECT_EQ(h.quantile(site, 1, 0.99), 5'000u);
  // A spread inside one power-of-two bucket [4096, 8192): interpolation
  // must land between the extremes, never at the 8191 upper bound the
  // pre-interpolation sketch reported.
  for (int i = 0; i < 100; ++i) h.record(site, 2, 4'200, 0, true);
  for (int i = 0; i < 100; ++i) h.record(site, 2, 7'800, 0, true);
  const std::uint64_t p50 = h.quantile(site, 2, 0.5);
  EXPECT_GE(p50, 4'200u);
  EXPECT_LE(p50, 7'800u);
  // Unknown arm: 0 means "no prediction".
  EXPECT_EQ(h.quantile(site, 9, 0.5), 0u);
}

TEST(History, ArmsListsOneSiteOrdered) {
  HistoryStore h(64);
  const std::uint64_t site = site_hash("t", 3);
  h.record(site, 3, 30, 0, false);
  h.record(site, 1, 10, 0, true);
  h.record(site, 2, 20, 0, false);
  h.record(site_hash("t", 4), 1, 99, 0, true);  // different site, unlisted
  const auto arms = h.arms(site);
  ASSERT_EQ(arms.size(), 3u);
  EXPECT_EQ(arms[0]->arm, 1u);
  EXPECT_EQ(arms[1]->arm, 2u);
  EXPECT_EQ(arms[2]->arm, 3u);
  EXPECT_EQ(arms[0]->min_wall_ns, 10u);
}

TEST(History, SnapshotRoundTripsAcrossStores) {
  const std::string path = tmp_snapshot_path();
  const std::uint64_t site = site_hash("t", 5);
  {
    HistoryStore h(64);
    h.record(site, 1, 1'000, 100, true);
    h.record(site, 1, 3'000, 300, false);
    h.record(site, 2, 50'000, 900, true);
    ASSERT_TRUE(h.save(path));
  }
  HistoryStore fresh(64);
  ASSERT_TRUE(fresh.load(path));
  const ArmStats* s1 = fresh.find(site, 1);
  const ArmStats* s2 = fresh.find(site, 2);
  ASSERT_NE(s1, nullptr);
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s1->total, 2u);
  EXPECT_EQ(s1->successes, 1u);
  EXPECT_EQ(s1->min_wall_ns, 1'000u);
  EXPECT_EQ(s1->max_wall_ns, 3'000u);
  EXPECT_DOUBLE_EQ(s1->ewma_wall_ns, 1'000.0 * 0.8 + 3'000.0 * 0.2);
  EXPECT_EQ(s2->total, 1u);
  // The quantile query works identically on the reloaded sketch.
  EXPECT_EQ(fresh.quantile(site, 2, 0.5), 50'000u);
  // New samples keep folding into a loaded store.
  fresh.record(site, 1, 10'000, 0, true);
  EXPECT_EQ(fresh.find(site, 1)->total, 3u);
  std::remove(path.c_str());
}

TEST(History, LoadRejectsMissingAndGarbageFiles) {
  HistoryStore h(8);
  EXPECT_FALSE(h.load("/tmp/altx_history_does_not_exist.bin"));
  const std::string path = tmp_snapshot_path();
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("not a snapshot", f);
  std::fclose(f);
  EXPECT_FALSE(h.load(path));
  EXPECT_EQ(h.size(), 0u);
  std::remove(path.c_str());
}

TEST(History, FullTableDropsSamplesInsteadOfAborting) {
  HistoryStore h(4);
  for (std::uint32_t arm = 1; arm <= 50; ++arm) {
    h.record(site_hash("full", static_cast<int>(arm)), 1, 100, 0, true);
  }
  EXPECT_LE(h.size(), h.capacity());
  EXPECT_GT(h.samples_dropped(), 0u);
  // Existing entries still accept samples after the table fills.
  const auto arms = h.arms(site_hash("full", 1));
  if (!arms.empty()) {
    const std::uint32_t before = arms[0]->total;
    h.record(site_hash("full", 1), 1, 100, 0, true);
    EXPECT_EQ(arms[0]->total, before + 1);
  }
}

TEST(History, QuantilesAreMonotoneInQ) {
  HistoryStore h(64);
  const std::uint64_t site = site_hash("t", 6);
  // Three shapes: uniform spread, heavy head with a long tail, and a
  // two-point mixture. Whatever the sketch does inside its buckets, a
  // higher quantile can never come out smaller.
  for (int i = 1; i <= 200; ++i) {
    h.record(site, 1, static_cast<std::uint64_t>(i) * 1'000, 0, true);
  }
  for (int i = 0; i < 190; ++i) h.record(site, 2, 2'000, 0, true);
  for (int i = 0; i < 10; ++i) h.record(site, 2, 900'000, 0, true);
  for (int i = 0; i < 50; ++i) h.record(site, 3, 1'000, 0, true);
  for (int i = 0; i < 50; ++i) h.record(site, 3, 64'000, 0, true);
  for (const std::uint32_t arm : {1u, 2u, 3u}) {
    const ArmStats* s = h.find(site, arm);
    ASSERT_NE(s, nullptr);
    const std::uint64_t p50 = s->wall_quantile(0.5);
    const std::uint64_t p90 = s->wall_quantile(0.9);
    const std::uint64_t p99 = s->wall_quantile(0.99);
    EXPECT_LE(p50, p90) << "arm " << arm;
    EXPECT_LE(p90, p99) << "arm " << arm;
    EXPECT_GE(p50, s->min_wall_ns) << "arm " << arm;
    EXPECT_LE(p99, s->max_wall_ns) << "arm " << arm;
  }
}

TEST(History, ConcurrentForkedWritersDontTearEntries) {
  // The store is MAP_SHARED: race<T>() parents in different processes fold
  // samples concurrently. Two forked writers hammer different arms with
  // constant walls; if the (site, arm) update were torn across processes,
  // the EWMA of a constant series could not stay at the constant, and
  // min/max could not both equal it.
  HistoryStore h(64);
  const std::uint64_t site = site_hash("t", 7);
  constexpr int kPerWriter = 2'000;
  pid_t pids[2];
  for (int w = 0; w < 2; ++w) {
    pids[w] = ::fork();
    ASSERT_GE(pids[w], 0);
    if (pids[w] == 0) {
      const std::uint32_t arm = static_cast<std::uint32_t>(w) + 1;
      const std::uint64_t wall = (w + 1) * 10'000;
      for (int i = 0; i < kPerWriter; ++i) {
        h.record(site, arm, wall, wall / 2, w == 0);
      }
      ::_exit(0);
    }
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
  for (int w = 0; w < 2; ++w) {
    const std::uint32_t arm = static_cast<std::uint32_t>(w) + 1;
    const std::uint64_t wall = (w + 1) * 10'000;
    const ArmStats* s = h.find(site, arm);
    ASSERT_NE(s, nullptr) << "arm " << arm;
    EXPECT_EQ(s->total, static_cast<std::uint32_t>(kPerWriter));
    EXPECT_EQ(s->successes, w == 0 ? static_cast<std::uint32_t>(kPerWriter) : 0u);
    EXPECT_EQ(s->min_wall_ns, wall);
    EXPECT_EQ(s->max_wall_ns, wall);
    EXPECT_DOUBLE_EQ(s->ewma_wall_ns, static_cast<double>(wall));
    EXPECT_EQ(s->wall_quantile(0.5), wall);
  }
}

TEST(History, SnapshotFromASigkilledProcessLoadsOrIsAbsentNeverTorn) {
  // tmp+rename discipline: a writer that is SIGKILLed right after save()
  // leaves a complete snapshot; one killed before the save leaves nothing.
  // Either way the reader gets a clean store, never a half-written table.
  const std::string path = tmp_snapshot_path();
  const std::uint64_t site = site_hash("t", 8);
  std::remove(path.c_str());

  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    HistoryStore h(64);
    for (int i = 0; i < 25; ++i) h.record(site, 1, 4'000, 2'000, true);
    h.save(path);
    ::raise(SIGKILL);  // no destructors, no flush beyond the rename
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  HistoryStore fresh(64);
  ASSERT_TRUE(fresh.load(path));
  const ArmStats* s = fresh.find(site, 1);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->total, 25u);
  EXPECT_EQ(fresh.quantile(site, 1, 0.99), 4'000u);
  std::remove(path.c_str());

  // Killed before any save: only the .tmp (at most) may exist; load of the
  // real path fails cleanly and the store stays empty.
  pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    HistoryStore h(64);
    h.record(site, 1, 4'000, 2'000, true);
    ::raise(SIGKILL);
    ::_exit(1);
  }
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  HistoryStore none(64);
  EXPECT_FALSE(none.load(path));
  EXPECT_EQ(none.size(), 0u);
}

TEST(History, RaceWithSiteIdRecordsEveryReapedArm) {
  HistoryStore* h = history_enable_for_test(64);
  ASSERT_NE(h, nullptr);
  posix::RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = ALTX_SITE();
  const auto r = posix::race<int>(
      {
          [] { return std::optional<int>(1); },
          [] { ::usleep(2'000); return std::optional<int>(2); },
      },
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 1);
  posix::reap_eliminated();  // the arms the verdict ended sample at reap
  const ArmStats* winner = h->find(opts.site_id, 1);
  const ArmStats* loser = h->find(opts.site_id, 2);
  ASSERT_NE(winner, nullptr);
  ASSERT_NE(loser, nullptr);
  EXPECT_EQ(winner->total, 1u);
  EXPECT_EQ(winner->successes, 1u);
  EXPECT_EQ(loser->total, 1u);
  EXPECT_EQ(loser->successes, 0u);
  // Wall clamps are real measurements: both arms took nonzero time, and
  // the quantile query returns something a controller can act on.
  EXPECT_GT(winner->min_wall_ns, 0u);
  EXPECT_GT(h->quantile(opts.site_id, 2, 0.5), 0u);
  history_disable_for_test();
}

TEST(History, ReplicasFoldIntoTheirAlternative) {
  HistoryStore* h = history_enable_for_test(64);
  posix::RaceOptions opts;
  opts.timeout = 5'000ms;
  opts.site_id = ALTX_SITE();
  opts.replicas = 2;
  const auto r = posix::race<int>(
      {
          [] { return std::optional<int>(1); },
          [] { ::usleep(2'000); return std::optional<int>(2); },
      },
      opts);
  ASSERT_TRUE(r.has_value());
  posix::reap_eliminated();  // the arms the verdict ended sample at reap
  // 2 alternatives x 2 replicas = 4 children, attributed to 2 arms.
  const ArmStats* a1 = h->find(opts.site_id, 1);
  const ArmStats* a2 = h->find(opts.site_id, 2);
  ASSERT_NE(a1, nullptr);
  ASSERT_NE(a2, nullptr);
  EXPECT_EQ(a1->total + a2->total, 4u);
  EXPECT_EQ(a1->total, 2u);
  history_disable_for_test();
}

}  // namespace
}  // namespace altx::obs
