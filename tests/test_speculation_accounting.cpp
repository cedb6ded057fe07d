// The speculation-efficiency ledger: wait4 rusage per child, the shared
// census arena for losers' dirty COW pages, and the per-block rollup.
//
// The scenarios pin the property the paper's section 3.1 bet depends on
// being measurable: speculation is "free" only if you never look at the
// meter. Here the loser burns real CPU and dirties real pages before
// losing, and the ledger must bill it — including when the loser dies of
// a fault-injected SIGKILL at its sync point, where only wait4 (for CPU)
// and the pre-sync census (for pages) still know what it cost.
//
// The group's report is the block at its verdict: a child the verdict ended
// before it exited (often the winner, which exits right after its frame) is
// billed when the reap set reaps it, in its kChildUsage record and the
// block's kSpecReport. The whole bill is read there, after
// reap_eliminated().
#include <gtest/gtest.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "obs/trace.hpp"
#include "posix/alt_group.hpp"
#include "posix/alt_heap.hpp"
#include "posix/fault.hpp"
#include "posix/race.hpp"

namespace altx::posix {
namespace {

using namespace std::chrono_literals;

/// Spends `ms` of *CPU* time busy — metered against the thread CPU clock,
/// not wall time, because wait4 bills CPU and a parallel ctest run can
/// preempt this process enough that a wall-clock spin accrues only a
/// fraction of its window. Far above the kernel's ~1-4 ms rusage
/// granularity so the assertions have headroom.
void burn_cpu(std::chrono::milliseconds ms) {
  timespec ts{};
  const auto cpu_ns = [&ts]() -> long long {
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
  };
  const long long end = cpu_ns() + ms.count() * 1'000'000LL;
  volatile std::uint64_t sink = 0;
  while (cpu_ns() < end) sink = sink + 1;
}

void dirty_heap_pages(AltHeap& heap, std::size_t n) {
  for (std::size_t p = 0; p < n; ++p) {
    *heap.at<std::uint64_t>(p * heap.page_size()) = p + 1;
  }
}

/// The deterministic cast: index 1 is the loser (burns, dirties, aborts),
/// index 2 the winner (sleeps long enough for the loser to finish dying,
/// then commits). The sleep is the ordering guarantee — by the time the
/// winner commits and the parent starts eliminating, the loser's whole
/// abort path (census publish included) has long completed. It is sized
/// for the worst case of burn_cpu's 60 ms of CPU stretching to several
/// hundred ms of wall time under a fully loaded parallel test run.
constexpr int kLoser = 1;
constexpr int kWinner = 2;
constexpr std::size_t kDirtyPages = 6;

/// A block's whole bill, as its records tell it once every child is reaped.
struct SettledBill {
  int billed = 0;  // kChildUsage records: children billed by wait4
  bool reported = false;  // its kSpecReport was emitted
  std::uint64_t wasted_cpu_ns = 0;
  std::uint64_t discarded_pages = 0;
  std::uint64_t winner_cpu_ns = 0;
};

/// Reaps what the reap set holds, then reads block `race_id`'s bill from
/// the trace (tracing on: obs::enable_for_test).
SettledBill settled_bill(std::uint32_t race_id) {
  reap_eliminated();
  SettledBill bill;
  for (const obs::Record& r : obs::snapshot()) {
    if (r.race_id != race_id) continue;
    if (r.kind == obs::EventKind::kChildUsage) ++bill.billed;
    if (r.kind == obs::EventKind::kSpecReport) {
      bill.reported = true;
      bill.wasted_cpu_ns = r.a;
      bill.discarded_pages = r.b;
      bill.winner_cpu_ns = r.c;
    }
  }
  return bill;
}

struct BlockOutcome {
  SpeculationReport spec;
  ChildStatus loser;
  ChildStatus winner;
  WaitVerdict verdict = WaitVerdict::kUndecided;
  SettledBill bill;
};

BlockOutcome run_block(AltHeap& heap, FaultInjector* fault) {
  obs::enable_for_test();
  AltGroupOptions go;
  go.heap = &heap;
  go.fault = fault;
  AltGroup group(go);
  const int who = group.alt_spawn(2);
  if (who == kLoser) {
    burn_cpu(60ms);
    dirty_heap_pages(heap, kDirtyPages);
    group.child_abort();
  }
  if (who == kWinner) {
    ::usleep(900'000);
    group.child_commit(Bytes{1, 2, 3});
  }
  const auto win = group.alt_wait(5s);
  BlockOutcome out;
  out.spec = group.speculation_report();
  out.loser = group.child_statuses()[kLoser - 1];
  out.winner = group.child_statuses()[kWinner - 1];
  out.verdict = group.verdict();
  out.bill = settled_bill(group.race_id());
  EXPECT_TRUE(win.has_value());
  return out;
}

TEST(SpeculationAccounting, LoserCpuAndPagesAreBilled) {
  AltHeap heap(16);
  const BlockOutcome out = run_block(heap, nullptr);

  // Fate classification is unchanged by the accounting machinery.
  EXPECT_EQ(out.verdict, WaitVerdict::kWinner);
  EXPECT_EQ(out.loser.fate, ChildFate::kAborted);
  EXPECT_EQ(out.winner.fate, ChildFate::kCommitted);

  // The loser burned ~60 ms of CPU; demand at least a third of it to stay
  // robust against scheduler preemption, but far above rusage granularity.
  EXPECT_GT(out.spec.wasted_cpu_ns, 20'000'000u);
  EXPECT_EQ(out.spec.discarded_pages, kDirtyPages);
  EXPECT_EQ(out.spec.discarded_bytes,
            kDirtyPages * static_cast<std::uint64_t>(heap.page_size()));
  // Both children are billed once reaped, the winner too if it was still
  // exiting at the verdict; the block's report covers them both.
  EXPECT_EQ(out.bill.billed, 2);
  ASSERT_TRUE(out.bill.reported);
  EXPECT_GT(out.bill.wasted_cpu_ns, 20'000'000u);
  EXPECT_EQ(out.bill.discarded_pages, kDirtyPages);

  // Per-child views agree with the rollup.
  EXPECT_EQ(out.loser.dirty_pages, kDirtyPages);
  EXPECT_GT(out.loser.usage.cpu_ns, 20'000'000u);
  EXPECT_EQ(out.winner.dirty_pages, 0u);  // it slept; nothing dirtied

  // total = winner + wasted, and the ratio normalizes by the winner.
  EXPECT_EQ(out.spec.total_cpu_ns,
            out.spec.winner_cpu_ns + out.spec.wasted_cpu_ns);
  if (out.spec.winner_cpu_ns > 0) {
    EXPECT_GT(out.spec.overhead_ratio(), 1.0);
  }
}

/// Finds a seed whose first attempt SIGKILLs the loser at its sync point
/// and leaves the winner untouched. decide() is a pure function of
/// (seed, attempt, child), so the search is deterministic and cheap.
std::uint64_t seed_killing_only_the_loser(const FaultProfile& profile) {
  for (std::uint64_t seed = 1; seed < 10'000; ++seed) {
    const FaultInjector probe(seed, profile);
    if (probe.decide(0, kLoser) == FaultKind::kCrashKill &&
        probe.decide(0, kWinner) == FaultKind::kNone) {
      return seed;
    }
  }
  ADD_FAILURE() << "no seed kills only the loser";
  return 0;
}

TEST(SpeculationAccounting, NumbersSurviveSigkilledLoser) {
  FaultProfile profile;
  profile.crash_kill = 0.5;
  const std::uint64_t seed = seed_killing_only_the_loser(profile);
  FaultInjector fault(seed, profile);

  AltHeap heap(16);
  const BlockOutcome out = run_block(heap, &fault);

  // The injector SIGKILLed the loser at its abort sync point: classified a
  // genuine crash (we did not send that signal), not an elimination.
  EXPECT_EQ(out.verdict, WaitVerdict::kWinner);
  EXPECT_EQ(out.loser.fate, ChildFate::kCrashed);
  EXPECT_EQ(out.loser.signal, SIGKILL);
  EXPECT_EQ(out.winner.fate, ChildFate::kCommitted);

  // The bill survives the kill: CPU from wait4 (the kernel's ledger), pages
  // from the census published before the sync point.
  EXPECT_GT(out.spec.wasted_cpu_ns, 20'000'000u);
  EXPECT_EQ(out.spec.discarded_pages, kDirtyPages);
  EXPECT_EQ(out.loser.dirty_pages, kDirtyPages);
}

TEST(SpeculationAccounting, WinnerPagesAreNotDiscarded) {
  // Mirror image: the WINNER dirties pages; the loser aborts untouched.
  AltHeap heap(16);
  AltGroup group(AltGroupOptions{.heap = &heap});
  const int who = group.alt_spawn(2);
  if (who == 1) {
    group.child_abort();
  }
  if (who == 2) {
    ::usleep(300'000);  // let the abort finish first, even under load
    dirty_heap_pages(heap, 3);
    group.child_commit(Bytes{9});
  }
  const auto win = group.alt_wait(5s);
  ASSERT_TRUE(win.has_value());
  const SpeculationReport rep = group.speculation_report();
  // Absorbed pages are the answer, not waste.
  EXPECT_EQ(rep.discarded_pages, 0u);
  EXPECT_EQ(win->pages_absorbed, 3u);
}

TEST(SpeculationAccounting, RaceReportCarriesTheLedger) {
  obs::enable_for_test();
  RaceReport report;
  RaceOptions opts;
  opts.report = &report;
  const auto r = race<int>(
      {
          []() -> std::optional<int> {
            burn_cpu(40ms);
            return std::nullopt;  // guard fails after real work
          },
          []() -> std::optional<int> {
            ::usleep(800'000);
            return 7;
          },
      },
      opts);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 7);
  // The loser was reaped long before the verdict; the winner is billed in
  // the report if it was reaped by the verdict, in the block's records
  // either way.
  EXPECT_GE(report.spec.children_costed, 1);
  EXPECT_GT(report.spec.wasted_cpu_ns, 10'000'000u);
  EXPECT_EQ(report.spec.total_cpu_ns,
            report.spec.winner_cpu_ns + report.spec.wasted_cpu_ns);
  const SettledBill bill = settled_bill(report.race_id);
  EXPECT_EQ(bill.billed, 2);
  ASSERT_TRUE(bill.reported);
  EXPECT_EQ(bill.wasted_cpu_ns, report.spec.wasted_cpu_ns);
}

TEST(SpeculationAccounting, NoWinnerMeansEverythingWasted) {
  obs::enable_for_test();
  AltGroup group;
  const int who = group.alt_spawn(2);
  if (who != 0) {
    burn_cpu(30ms);
    group.child_abort();
  }
  const auto win = group.alt_wait(5s);
  EXPECT_FALSE(win.has_value());
  EXPECT_EQ(group.verdict(), WaitVerdict::kAllFailed);
  const SpeculationReport rep = group.speculation_report();
  EXPECT_EQ(rep.winner_cpu_ns, 0u);
  EXPECT_EQ(rep.wasted_cpu_ns, rep.total_cpu_ns);
  EXPECT_EQ(rep.overhead_ratio(), 0.0);  // nothing to normalize by
  // The FAIL lands at the second abort frame, maybe before either child is
  // reaped; the block's report, complete once both are, bills them both.
  const SettledBill bill = settled_bill(group.race_id());
  EXPECT_EQ(bill.billed, 2);
  ASSERT_TRUE(bill.reported);
  EXPECT_EQ(bill.winner_cpu_ns, 0u);
  EXPECT_GT(bill.wasted_cpu_ns, 0u);
}

}  // namespace
}  // namespace altx::posix
