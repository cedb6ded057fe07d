// Tests for the real-process backend: alt_spawn/alt_wait, the commit-token
// at-most-once rule, sibling elimination, the COW AltHeap, race<T>, and
// checkpoint/restart.
//
// These use genuine fork(); each test finishes in well under a second.
#include <gtest/gtest.h>
#include <linux/audit.h>
#include <linux/filter.h>
#include <linux/seccomp.h>
#include <signal.h>
#include <fcntl.h>
#include <sys/ioctl.h>
#include <sys/prctl.h>
#include <sys/syscall.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <chrono>
#include <vector>

#include "common/error.hpp"
#include "obs/trace.hpp"
#include "posix/alt_group.hpp"
#include "posix/alt_heap.hpp"
#include "posix/checkpoint.hpp"
#include "posix/governor.hpp"
#include "posix/measure.hpp"
#include "posix/race.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;

// ioctl(PAGEMAP_SCAN) (Linux 6.7): 'f' 16, read-write, a 96-byte argument.
constexpr std::uint32_t kPagemapScan = _IOWR('f', 16, std::uint64_t[12]);

TEST(PosixRace, FastestAlternativeWins) {
  auto r = race<int>({
      [] { ::usleep(200'000); return std::optional<int>(1); },
      [] { ::usleep(10'000); return std::optional<int>(2); },
      [] { ::usleep(100'000); return std::optional<int>(3); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 2);
  EXPECT_EQ(r->winner, 2);
}

TEST(PosixRace, GuardFailureIsSkipped) {
  auto r = race<int>({
      [] { return std::optional<int>(); },  // fails instantly
      [] { ::usleep(30'000); return std::optional<int>(7); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 7);
  EXPECT_EQ(r->winner, 2);
}

TEST(PosixRace, AllFailuresReturnNullopt) {
  auto r = race<int>({
      [] { return std::optional<int>(); },
      [] { return std::optional<int>(); },
      [] { return std::optional<int>(); },
  });
  EXPECT_FALSE(r.has_value());
}

TEST(PosixRace, AllFailRaceReturnsAsSoonAsTheArmsExit) {
  // Section 3.2: alt_wait returns FAIL as soon as it can tell no child will
  // synchronize. Both guards fail at once, so the block costs a fork and a
  // reap — not a poll slice.
  std::vector<double> ms;
  for (int i = 0; i < 20; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    auto r = race<int>({
        [] { return std::optional<int>(); },
        [] { return std::optional<int>(); },
    });
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    EXPECT_FALSE(r.has_value());
  }
  std::nth_element(ms.begin(), ms.begin() + 10, ms.end());
  EXPECT_LT(ms[10], 10.0);
}

TEST(PosixRace, ExceptionCountsAsFailedGuard) {
  auto r = race<int>({
      []() -> std::optional<int> { throw std::runtime_error("boom"); },
      [] { ::usleep(20'000); return std::optional<int>(5); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 5);
}

TEST(PosixRace, TimeoutFailsTheBlock) {
  RaceOptions opts;
  opts.timeout = 100ms;
  const auto t0 = std::chrono::steady_clock::now();
  auto r = race<int>({
      [] { ::sleep(30); return std::optional<int>(1); },
      [] { ::sleep(30); return std::optional<int>(2); },
  }, opts);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(r.has_value());
  EXPECT_LT(elapsed, 5s);  // children were killed, not awaited
}

TEST(PosixRace, SideEffectsOfLosersStayInvisible) {
  // Each alternative mutates a (process-local after fork) global; only the
  // winner's mutations may be observable — and in the parent not even those,
  // because the result travels only through the commit payload.
  static int global_marker = 0;
  auto r = race<int>({
      [] { global_marker = 111; ::usleep(10'000); return std::optional<int>(global_marker); },
      [] { global_marker = 222; ::usleep(150'000); return std::optional<int>(global_marker); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 111);
  EXPECT_EQ(global_marker, 0);  // the parent's copy is untouched
}

TEST(RaceCodec, EmptyStringAndBytesRoundTrip) {
  EXPECT_EQ(race_decode<std::string>(race_encode<std::string>("")), "");
  EXPECT_TRUE(race_encode<std::string>("").empty());
  EXPECT_EQ(race_decode<Bytes>(race_encode<Bytes>(Bytes{})), Bytes{});
}

TEST(RaceCodec, PayloadsLargerThanThePipeBufferRoundTrip) {
  // 256 KiB crosses the default 64 KiB pipe capacity several times over;
  // the frame protocol must not depend on a single atomic write.
  std::string big(256 * 1024, 'x');
  for (std::size_t i = 0; i < big.size(); i += 997) big[i] = char('a' + i % 26);
  EXPECT_EQ(race_decode<std::string>(race_encode<std::string>(big)), big);
  const Bytes raw(race_encode<std::string>(big));
  EXPECT_EQ(race_decode<Bytes>(race_encode<Bytes>(raw)), raw);
}

TEST(RaceCodec, TrivialTypesRejectWrongSizes) {
  const double v = 2.5;
  EXPECT_EQ(race_decode<double>(race_encode<double>(v)), v);
  EXPECT_THROW((void)race_decode<double>(Bytes{}), UsageError);
  EXPECT_THROW((void)race_decode<int>(Bytes(sizeof(int) + 1, 0)), UsageError);
}

TEST(PosixRace, LargeResultCrossesTheCommitPipe) {
  // The winner's payload exceeds PIPE_BUF and the default pipe capacity:
  // the commit must still deliver it intact.
  const auto r = race<std::string>({
      [] { return std::optional<std::string>(std::string(256 * 1024, 'z')); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value.size(), 256u * 1024u);
  EXPECT_EQ(r->value.front(), 'z');
  EXPECT_EQ(r->value.back(), 'z');
}

TEST(PosixRace, StringResults) {
  auto r = race<std::string>({
      [] { ::usleep(5'000); return std::optional<std::string>("fast"); },
      [] { ::usleep(100'000); return std::optional<std::string>("slow"); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, "fast");
}

TEST(PosixRace, TrivialStructResults) {
  struct Point {
    double x, y;
  };
  auto r = race<Point>({
      [] { return std::optional<Point>(Point{1.5, 2.5}); },
  });
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->value.x, 1.5);
  EXPECT_DOUBLE_EQ(r->value.y, 2.5);
}

TEST(PosixRace, ManyAlternativesStillAtMostOneWinner) {
  auto mk = [](int i) -> AlternativeFn<int> {
    return [i] { ::usleep(static_cast<useconds_t>(1000 * (i % 3))); return std::optional<int>(i); };
  };
  std::vector<AlternativeFn<int>> alts;
  for (int i = 0; i < 8; ++i) alts.push_back(mk(i));
  auto r = race<int>(alts);
  ASSERT_TRUE(r.has_value());
  EXPECT_GE(r->winner, 1);
  EXPECT_LE(r->winner, 8);
  EXPECT_EQ(r->value, r->winner - 1);
}

// ---------------------------------------------------------------------------
// AltGroup at the primitive level
// ---------------------------------------------------------------------------

TEST(AltGroup, SpawnReturnsDistinctIndices) {
  AltGroup g;
  const int who = g.alt_spawn(3);
  if (who > 0) {
    // Child: report our index as the result.
    Bytes b{static_cast<std::uint8_t>(who)};
    ::usleep(static_cast<useconds_t>(who * 20'000));  // child 1 is fastest
    g.child_commit(b);
  }
  auto win = g.alt_wait(5s);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->index, 1);
  ASSERT_EQ(win->result.size(), 1u);
  EXPECT_EQ(win->result[0], 1);
}

TEST(AltGroup, AltWaitIsIdempotent) {
  AltGroup g;
  if (g.alt_spawn(1) > 0) g.child_commit(Bytes{9});
  auto first = g.alt_wait(5s);
  auto second = g.alt_wait(5s);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->index, second->index);
}

TEST(AltGroup, AbortedChildrenAreCounted) {
  AltGroup g;
  const int who = g.alt_spawn(3);
  if (who == 1) {
    ::usleep(20'000);
    g.child_commit(Bytes{1});
  }
  if (who > 1) g.child_abort();
  auto win = g.alt_wait(5s);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(g.aborted_children(), 2);
}

TEST(AltGroup, WinnerReturnsBeforeItsLoserDies) {
  // Elimination is asynchronous: the verdict kills the 30 s loser and
  // returns; the reap set reaps it later and tells its fate and bill then.
  obs::enable_for_test();
  AltGroup g;
  const int who = g.alt_spawn(2);
  if (who == 1) g.child_commit(Bytes{1});
  if (who == 2) {
    ::sleep(30);
    g.child_commit(Bytes{2});
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto win = g.alt_wait(60s);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 500ms);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->index, 1);
  const ChildStatus loser = g.child_statuses()[1];
  EXPECT_EQ(loser.fate, ChildFate::kEliminated);  // the verdict's view

  reap_eliminated();
  int fates = 0;
  int bills = 0;
  for (const obs::Record& r : obs::snapshot()) {
    if (r.race_id != g.race_id() || r.child_index != 2) continue;
    if (r.kind == obs::EventKind::kChildFate) {
      ++fates;
      EXPECT_EQ(static_cast<ChildFate>(r.a), ChildFate::kEliminated);
    } else if (r.kind == obs::EventKind::kChildUsage) {
      ++bills;
      EXPECT_GT(r.b, 0u);  // wait4's bill: its peak RSS
    }
  }
  EXPECT_EQ(fates, 1);
  EXPECT_EQ(bills, 1);
  // Reaped, not a zombie: the pid is no child of ours any more.
  EXPECT_EQ(::waitpid(loser.pid, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// ---------------------------------------------------------------------------
// AltHeap: COW state absorption
// ---------------------------------------------------------------------------

TEST(AltHeap, DirtyPageTrackingRecordsWrites) {
  AltHeap heap(8);
  auto* words = heap.at<std::uint64_t>(0);
  words[0] = 1;  // pre-tracking write, not recorded
  heap.begin_tracking();
  heap.at<std::uint64_t>(2 * heap.page_size())[0] = 42;
  heap.at<std::uint64_t>(5 * heap.page_size())[0] = 43;
  heap.end_tracking();
  auto dirty = heap.dirty_pages();
  std::sort(dirty.begin(), dirty.end());
  EXPECT_EQ(dirty, (std::vector<std::uint32_t>{2, 5}));
}

TEST(AltHeap, ReadsDoNotDirty) {
  AltHeap heap(4);
  heap.at<std::uint64_t>(0)[0] = 7;
  heap.begin_tracking();
  volatile std::uint64_t v = heap.at<std::uint64_t>(0)[0];
  (void)v;
  heap.end_tracking();
  EXPECT_TRUE(heap.dirty_pages().empty());
}

TEST(AltHeap, PatchRoundTrip) {
  AltHeap a(4);
  AltHeap b(4);
  a.begin_tracking();
  a.at<std::uint64_t>(a.page_size())[0] = 0xabcd;
  const Bytes patch = a.serialize_dirty();
  a.end_tracking();
  EXPECT_EQ(b.apply_patch(patch), 1u);
  EXPECT_EQ(b.at<std::uint64_t>(b.page_size())[0], 0xabcdu);
}

TEST(AltHeap, WinnerStateIsAbsorbedAcrossProcesses) {
  AltHeap heap(16);
  auto* slot = heap.at<std::uint64_t>(3 * heap.page_size());
  slot[0] = 0;
  RaceOptions opts;
  opts.heap = &heap;
  auto r = race<int>({
      [&]() -> std::optional<int> {
        ::usleep(5'000);
        slot[0] = 1111;  // the winner's page update
        return 1;
      },
      [&]() -> std::optional<int> {
        ::usleep(200'000);
        slot[0] = 2222;
        return 2;
      },
  }, opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 1);
  EXPECT_GE(r->pages_absorbed, 1u);
  // The parent observes exactly the winner's update.
  EXPECT_EQ(slot[0], 1111u);
}

TEST(AltHeap, LoserWritesNeverReachParent) {
  AltHeap heap(8);
  auto* a = heap.at<std::uint64_t>(1 * heap.page_size());
  auto* b = heap.at<std::uint64_t>(2 * heap.page_size());
  *a = 0;
  *b = 0;
  RaceOptions opts;
  opts.heap = &heap;
  auto r = race<int>({
      [&]() -> std::optional<int> { *a = 5; ::usleep(5'000); return 1; },
      [&]() -> std::optional<int> { *b = 6; ::usleep(300'000); return 2; },
  }, opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->winner, 1);
  EXPECT_EQ(*a, 5u);
  EXPECT_EQ(*b, 0u);  // loser's page never patched in
}

TEST(AltHeap, NestedWinnerPagesReachTheTopParent) {
  // An arm runs a block of its own over the same heap. Its inner winner's
  // page lands in the arm's tracked arena by a kernel write, which no fault
  // handler sees; the arm's own commit must still carry it to the top.
  AltHeap heap(16);
  auto word = [&heap](std::size_t p) {
    return heap.at<std::uint64_t>(p * heap.page_size());
  };
  RaceOptions opts;
  opts.heap = &heap;
  auto r = race<int>(
      {
          [&]() -> std::optional<int> {
            auto inner = race<int>(
                {[&]() -> std::optional<int> {
                  word(5)[0] = 55;
                  return 1;
                }},
                opts);
            if (!inner.has_value() || inner->pages_absorbed != 1) {
              return std::nullopt;
            }
            word(7)[0] = 77;
            return 1;
          },
      },
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pages_absorbed, 2u);
  EXPECT_EQ(word(5)[0], 55u);
  EXPECT_EQ(word(7)[0], 77u);
  EXPECT_EQ(word(6)[0], 0u);
}

/// Makes every later process_vm_readv of this process fail with EPERM, the
/// way a seccomp policy can. False where the filter cannot be installed.
bool deny_process_vm_readv() {
#if defined(__x86_64__)
  constexpr std::uint32_t kArch = AUDIT_ARCH_X86_64;
#elif defined(__aarch64__)
  constexpr std::uint32_t kArch = AUDIT_ARCH_AARCH64;
#else
  return false;
#endif
  sock_filter filter[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, arch)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, kArch, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_process_vm_readv, 0, 1),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ERRNO | (EPERM & SECCOMP_RET_DATA)),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
  };
  sock_fprog prog{static_cast<unsigned short>(std::size(filter)), filter};
  return ::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0 &&
         ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog) == 0;
}

TEST(AltHeap, AbsorbFallsBackWhenThePullIsDenied) {
  // The filter stays with the process that installs it, so a forked helper
  // installs it and runs the race; its exit code is the verdict.
  enum : int { kOk = 0, kWrong = 1, kNoFilter = 2, kThrew = 3 };
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    int code = kThrew;
    try {
      if (!deny_process_vm_readv()) _exit(kNoFilter);
      std::uint64_t probe = 0;
      iovec v{&probe, sizeof probe};
      if (::process_vm_readv(::getpid(), &v, 1, &v, 1, 0) != -1 ||
          errno != EPERM) {
        _exit(kNoFilter);
      }
      AltHeap heap(32);
      const std::size_t psz = heap.page_size();
      for (std::size_t p = 0; p < heap.pages(); ++p) {
        heap.at<std::uint64_t>(p * psz)[0] = p;
      }
      RaceOptions opts;
      opts.heap = &heap;
      const std::vector<std::size_t> written = {3, 4, 5, 9, 20, 31};
      auto r = race<int>(
          {
              [&]() -> std::optional<int> {
                for (std::size_t p : written) {
                  auto* w = heap.at<std::uint64_t>(p * psz);
                  w[0] = 1000 + p;
                  w[psz / sizeof(std::uint64_t) - 1] = 2000 + p;
                }
                return 1;
              },
              [&]() -> std::optional<int> {
                heap.at<std::uint64_t>(0)[0] = 666;
                ::usleep(300'000);
                return 2;
              },
          },
          opts);
      bool ok = r.has_value() && r->winner == 1 &&
                r->pages_absorbed == written.size();
      for (std::size_t p = 0; ok && p < heap.pages(); ++p) {
        const auto* w = heap.at<std::uint64_t>(p * psz);
        const bool dirty =
            std::find(written.begin(), written.end(), p) != written.end();
        ok = dirty ? w[0] == 1000 + p && w[psz / sizeof(std::uint64_t) - 1] ==
                                             2000 + p
                   : w[0] == p;
      }
      code = ok ? kOk : kWrong;
    } catch (...) {
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(helper, &status, 0), helper);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == kNoFilter) {
    GTEST_SKIP() << "cannot install a seccomp filter here";
  }
  EXPECT_EQ(WEXITSTATUS(status), kOk);
}

// A heap winner's pages live only as long as it does, so the window between
// its frame reaching the pipe and the parent looking is where a kill would
// take them. Each test below opens that window on purpose: the parent sleeps
// while the arm writes its frame and waits for its release.

TEST(AltHeap, FrameOutAtTheDeadlineIsTakenNotKilled) {
  AltHeap heap(8);
  auto* word = heap.at<std::uint64_t>(3 * heap.page_size());
  AltGroupOptions opts;
  opts.heap = &heap;
  AltGroup g(opts);
  if (g.alt_spawn(1) > 0) {
    word[0] = 33;
    g.child_commit(Bytes{1});
  }
  ::usleep(200'000);
  const auto win = g.alt_wait(0ms);  // already past the deadline
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->pages_absorbed, 1u);
  EXPECT_EQ(word[0], 33u);
  EXPECT_EQ(g.count_fate(ChildFate::kCommitted), 1);
}

TEST(AltHeap, GovernedKillSparesAWinnerWhoseFrameIsOut) {
  GovernorConfig gc;
  gc.arm_wall_budget = 20ms;
  SpeculationGovernor gov(gc);
  AltHeap heap(8);
  auto* word = heap.at<std::uint64_t>(2 * heap.page_size());
  AltGroupOptions opts;
  opts.heap = &heap;
  opts.governor = &gov;
  AltGroup g(opts);
  if (g.alt_spawn(1) > 0) {
    word[0] = 22;
    g.child_commit(Bytes{1});
  }
  ::usleep(200'000);  // the wall budget is long spent when the wait starts
  const auto win = g.alt_wait(5s);
  ASSERT_TRUE(win.has_value());
  EXPECT_EQ(win->pages_absorbed, 1u);
  EXPECT_EQ(word[0], 22u);
  EXPECT_EQ(g.count_fate(ChildFate::kOverBudget), 0);
  EXPECT_EQ(gov.stats().kills_wall, 0u);
}

TEST(AltHeap, WinnerDeadBeforeThePullLosesWithoutThrowing) {
  AltHeap heap(8);
  auto* word = heap.at<std::uint64_t>(4 * heap.page_size());
  word[0] = 1;
  AltGroupOptions opts;
  opts.heap = &heap;
  AltGroup g(opts);
  if (g.alt_spawn(1) > 0) {
    word[0] = 44;
    g.child_commit(Bytes{1});
  }
  ::usleep(200'000);
  // Its frame is out, and then it dies before the parent looks: the frame
  // names pages that no longer exist anywhere.
  const pid_t pid = g.child_statuses()[0].pid;
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(pid), &info,
                     WEXITED | WNOWAIT),
            0);
  std::optional<AltWinner> win;
  ASSERT_NO_THROW(win = g.alt_wait(5s));
  EXPECT_FALSE(win.has_value());
  EXPECT_EQ(g.verdict(), WaitVerdict::kAllFailed);
  EXPECT_EQ(g.count_fate(ChildFate::kCrashed), 1);
  EXPECT_EQ(word[0], 1u);
}

TEST(AltHeap, PlainForkChildCannotWriteTheParentsArena) {
  // The owner maps its arena shared, so nothing but the fork handler's
  // private map stands between a child that is not an arm and its pages.
  AltHeap heap(4);
  auto* word = heap.at<std::uint64_t>(2 * heap.page_size());
  word[0] = 7;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    const bool saw_parent = word[0] == 7;
    word[0] = 666;
    _exit(saw_parent && word[0] == 666 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(word[0], 7u);
}

TEST(AltHeap, ArmDirtySetIsExactlyTheWrittenPages) {
  // Reading a page maps the owner's copy; only a write makes a page the
  // arm's own, and only those pages are absorbed.
  AltHeap heap(128);
  const std::size_t psz = heap.page_size();
  for (std::size_t p = 0; p < heap.pages(); ++p) {
    heap.at<std::uint64_t>(p * psz)[0] = p;
  }
  const std::vector<std::size_t> written = {0, 77, heap.pages() - 1};
  RaceOptions opts;
  opts.heap = &heap;
  auto r = race<int>(
      {[&]() -> std::optional<int> {
        std::uint64_t sum = 0;
        for (std::size_t p = 0; p < heap.pages(); p += 2) {
          sum += heap.at<std::uint64_t>(p * psz)[0];  // 64 pages read
        }
        for (std::size_t p : written) {
          heap.at<std::uint64_t>(p * psz)[0] += 1000;
        }
        return static_cast<int>(sum);
      }},
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 2 * (63 * 64 / 2));
  EXPECT_EQ(r->pages_absorbed, written.size());
  for (std::size_t p = 0; p < heap.pages(); ++p) {
    const bool dirty =
        std::find(written.begin(), written.end(), p) != written.end();
    EXPECT_EQ(heap.at<std::uint64_t>(p * psz)[0], dirty ? p + 1000 : p) << p;
  }
}

/// Makes every later ioctl(PAGEMAP_SCAN) of this process fail with ENOTTY,
/// as on a kernel older than 6.7. False where the filter cannot be
/// installed.
bool deny_pagemap_scan() {
#if defined(__x86_64__)
  constexpr std::uint32_t kArch = AUDIT_ARCH_X86_64;
#elif defined(__aarch64__)
  constexpr std::uint32_t kArch = AUDIT_ARCH_AARCH64;
#else
  return false;
#endif
  sock_filter filter[] = {
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, arch)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, kArch, 1, 0),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, nr)),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, __NR_ioctl, 0, 3),
      // The request's low word (both targets are little-endian).
      BPF_STMT(BPF_LD | BPF_W | BPF_ABS, offsetof(seccomp_data, args[1])),
      BPF_JUMP(BPF_JMP | BPF_JEQ | BPF_K, kPagemapScan, 0, 1),
      BPF_STMT(BPF_RET | BPF_K,
               SECCOMP_RET_ERRNO | (ENOTTY & SECCOMP_RET_DATA)),
      BPF_STMT(BPF_RET | BPF_K, SECCOMP_RET_ALLOW),
  };
  sock_fprog prog{static_cast<unsigned short>(std::size(filter)), filter};
  return ::prctl(PR_SET_NO_NEW_PRIVS, 1, 0, 0, 0) == 0 &&
         ::prctl(PR_SET_SECCOMP, SECCOMP_MODE_FILTER, &prog) == 0;
}

TEST(AltHeap, ArmsFallBackToFaultTrackingWithoutPagemapScan) {
  // As AbsorbFallsBackWhenThePullIsDenied: a forked helper installs the
  // filter and runs the race; its exit code is the verdict.
  enum : int { kOk = 0, kWrong = 1, kNoFilter = 2, kThrew = 3 };
  const pid_t helper = ::fork();
  ASSERT_GE(helper, 0);
  if (helper == 0) {
    int code = kThrew;
    try {
      if (!deny_pagemap_scan()) _exit(kNoFilter);
      std::uint64_t arg[12] = {sizeof arg};
      const int pagemap = ::open("/proc/self/pagemap", O_RDONLY);
      if (pagemap < 0 || ::ioctl(pagemap, kPagemapScan, arg) != -1 ||
          errno != ENOTTY) {
        _exit(kNoFilter);
      }
      ::close(pagemap);
      AltHeap heap(32);
      const std::size_t psz = heap.page_size();
      for (std::size_t p = 0; p < heap.pages(); ++p) {
        heap.at<std::uint64_t>(p * psz)[0] = p;
      }
      RaceOptions opts;
      opts.heap = &heap;
      const std::vector<std::size_t> written = {0, 4, 5, 9, 31};
      auto r = race<int>(
          {
              [&]() -> std::optional<int> {
                std::uint64_t sum = 0;
                for (std::size_t p = 0; p < heap.pages(); ++p) {
                  sum += heap.at<std::uint64_t>(p * psz)[0];
                }
                for (std::size_t p : written) {
                  heap.at<std::uint64_t>(p * psz)[0] = 1000 + p;
                }
                return static_cast<int>(sum);
              },
              [&]() -> std::optional<int> {
                heap.at<std::uint64_t>(2 * psz)[0] = 666;
                ::usleep(300'000);
                return 2;
              },
          },
          opts);
      bool ok = r.has_value() && r->winner == 1 && r->value == 31 * 32 / 2 &&
                r->pages_absorbed == written.size();
      for (std::size_t p = 0; ok && p < heap.pages(); ++p) {
        const bool dirty =
            std::find(written.begin(), written.end(), p) != written.end();
        ok = heap.at<std::uint64_t>(p * psz)[0] == (dirty ? 1000 + p : p);
      }
      code = ok ? kOk : kWrong;
    } catch (...) {
    }
    _exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(helper, &status, 0), helper);
  ASSERT_TRUE(WIFEXITED(status));
  if (WEXITSTATUS(status) == kNoFilter) {
    GTEST_SKIP() << "cannot install a seccomp filter here";
  }
  EXPECT_EQ(WEXITSTATUS(status), kOk);
}

// ---------------------------------------------------------------------------
// Checkpoint / rfork
// ---------------------------------------------------------------------------

TEST(Checkpoint, SaveLoadRoundTrip) {
  const std::string path = "/tmp/altx_test_ckpt_" + std::to_string(::getpid());
  Bytes image{1, 2, 3, 4, 5};
  checkpoint_save(path, image);
  EXPECT_EQ(checkpoint_load(path), image);
  ::unlink(path.c_str());
}

TEST(Checkpoint, LoadRejectsCorruptMagic) {
  const std::string path = "/tmp/altx_test_bad_" + std::to_string(::getpid());
  FILE* f = ::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  ::fwrite("garbage-garbage-", 1, 16, f);
  ::fclose(f);
  EXPECT_THROW(checkpoint_load(path), UsageError);
  ::unlink(path.c_str());
}

TEST(Checkpoint, RforkSimulatedRestoresRemotely) {
  const auto r = rfork_simulated(70 * 1024, /*network_ms=*/0.0, "/tmp");
  EXPECT_EQ(r.image_bytes, 70u * 1024u);
  EXPECT_GT(r.checkpoint_ms, 0.0);
  EXPECT_GE(r.restore_ms, 0.0);
  EXPECT_GE(r.total_ms, r.checkpoint_ms);
}

TEST(Checkpoint, NetworkDelayAddsToTotal) {
  const auto fast = rfork_simulated(8 * 1024, 0.0, "/tmp");
  const auto slow = rfork_simulated(8 * 1024, 400.0, "/tmp");
  EXPECT_GT(slow.total_ms, fast.total_ms + 300.0);
}

// ---------------------------------------------------------------------------
// Host measurements (sanity only; absolute values are hardware-dependent)
// ---------------------------------------------------------------------------

TEST(Measure, ForkCostIsPositiveAndGrowsWithArena) {
  const auto small = measure_fork(64 * 1024, 10);
  const auto large = measure_fork(32 * 1024 * 1024, 10);
  EXPECT_GT(small.mean_ms, 0.0);
  // Bigger page tables cost more to duplicate; allow generous noise slack.
  EXPECT_GT(large.mean_ms, small.mean_ms * 0.5);
}

TEST(Measure, PageCopyRateIsMeasurable) {
  const auto m = measure_page_copy(16 * 1024 * 1024, 0.5, 3);
  EXPECT_GT(m.pages_copied, 0u);
  EXPECT_GT(m.pages_per_second, 0.0);
}

TEST(Measure, ZeroFractionWritesNothing) {
  const auto m = measure_page_copy(1024 * 1024, 0.0, 1);
  EXPECT_EQ(m.pages_copied, 0u);
}

}  // namespace
}  // namespace altx::posix
