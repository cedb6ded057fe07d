// Direct coverage of posix/hedged.hpp: staggered replicas of one method.
//
// The hedging contract: copy k is forked k*stagger after the block starts;
// the first copy to finish takes the commit token; everyone else is
// eliminated, and a copy whose start the verdict comes before is never
// forked. These tests pin the visible consequences — who wins under which
// latencies, how many copies ran, the copy index reaching the task, and the
// too-slow / all-fail edges.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>

#include "obs/trace.hpp"
#include "posix/hedged.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;

/// Reaps the children the reap set holds, then counts what is left: any
/// zombie found here is a leak.
int sweep_zombies() {
  reap_eliminated();
  int n = 0;
  while (::waitpid(-1, nullptr, WNOHANG) > 0) ++n;
  return n;
}

TEST(Hedged, FastPrimaryWins) {
  // The primary finishes well inside the stagger window: the verdict comes
  // before the hedge's start, so the hedge is never forked.
  const auto r = hedged<int>(
      [](int copy) -> std::optional<int> {
        if (copy == 0) return 100;
        ::usleep(5'000);
        return 200 + copy;
      },
      {.max_copies = 2, .stagger = 200ms, .timeout = 5'000ms});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 100);
  EXPECT_FALSE(r->hedge_won);
  EXPECT_EQ(r->copies_launched, 1);
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(Hedged, HedgeWinsWhenPrimaryStalls) {
  // The primary sleeps far past the stagger; the hedge is forked, computes,
  // and commits first. hedge_won must report it.
  const auto r = hedged<int>(
      [](int copy) -> std::optional<int> {
        if (copy == 0) {
          ::usleep(500'000);
          return 100;
        }
        return 200 + copy;
      },
      {.max_copies = 2, .stagger = 10ms, .timeout = 5'000ms});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 201);
  EXPECT_TRUE(r->hedge_won);
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(Hedged, CopyWhoseDelayHasNotPassedIsNeverForked) {
  obs::enable_for_test(1 << 12);
  obs::reset();
  // Copy 1 starts at 100 ms and beats the slow primary at once; copy 2
  // would start at 200 ms, after copy 1 has won.
  const auto r = hedged<int>(
      [](int copy) -> std::optional<int> {
        if (copy == 0) ::usleep(1'000'000);
        return copy;
      },
      {.max_copies = 3, .stagger = 100ms, .timeout = 5'000ms});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 1);
  EXPECT_EQ(r->copies_launched, 2);
  int forks = 0;
  int staged = 0;
  for (const obs::Record& rec : obs::snapshot()) {
    if (rec.kind == obs::EventKind::kFork) {
      ++forks;
      EXPECT_LE(rec.child_index, 2);
    } else if (rec.kind == obs::EventKind::kPredStage) {
      ++staged;
      EXPECT_EQ(rec.child_index, 2);
      EXPECT_EQ(rec.a, 100'000'000u);  // its start delay
    }
  }
  EXPECT_EQ(forks, 2);
  EXPECT_EQ(staged, 1);
  obs::reset();
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(Hedged, SingleCopyIsAPlainRace) {
  const auto r = hedged<int>(
      [](int copy) -> std::optional<int> { return 42 + copy; },
      {.max_copies = 1, .stagger = 1ms, .timeout = 5'000ms});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 42);
  EXPECT_FALSE(r->hedge_won);
  EXPECT_EQ(r->copies_launched, 1);
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(Hedged, CopyIndexReachesEachReplica) {
  // Every copy returns its own index; whoever wins, the value must equal
  // some valid copy index — the task really saw which replica it is.
  const auto r = hedged<int>(
      [](int copy) -> std::optional<int> { return copy; },
      {.max_copies = 3, .stagger = 1ms, .timeout = 5'000ms});
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(r->value, 0);
  EXPECT_LT(r->value, 3);
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(Hedged, AllCopiesFailingFailsTheBlock) {
  const auto r = hedged<int>(
      [](int) -> std::optional<int> { return std::nullopt; },
      {.max_copies = 3, .stagger = 1ms, .timeout = 5'000ms});
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(Hedged, TimeoutWhenEveryCopyHangs) {
  const auto r = hedged<int>(
      [](int) -> std::optional<int> {
        ::usleep(10'000'000);
        return 1;
      },
      {.max_copies = 2, .stagger = 5ms, .timeout = 100ms});
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(sweep_zombies(), 0);
}

TEST(Hedged, RejectsZeroCopies) {
  EXPECT_THROW(
      hedged<int>([](int) -> std::optional<int> { return 1; },
                  {.max_copies = 0}),
      UsageError);
}

}  // namespace
}  // namespace altx::posix
