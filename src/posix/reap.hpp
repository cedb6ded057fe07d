// The one reap path: wait4 with EINTR retry and rusage capture, the pidfd
// that tells a poll(2) set when a child is ready to be reaped, the one
// classifier of a reaped child, and the process-wide reap set.
//
// Every reap — AltGroup's cohort wait before a verdict and the reap set
// after it — goes through here, for two reasons. First, dedup: the EINTR
// dance, the WIFEXITED/WIFSIGNALED decoding and the fate rules are written
// once. Second — the speculation-efficiency ledger needs it — waitpid
// discards exactly the numbers the accounting wants: wait4's rusage is the
// only way to learn how much CPU a SIGKILLed loser burned, because the
// loser itself is no longer around to ask.
//
// Asynchronous elimination (paper section 3.2.1): once a block's verdict is
// in, no child of it can commit any more, and a loser's pages are private,
// so the block does not wait for its children to die. Its verdict kills the
// losers, releases a heap winner and hands every child that has not exited
// yet to the reap set, which later bills, traces and samples each one
// through the same classifier as a reap before the verdict — under the fate
// the verdict gave it — and returns its governor token. The set is swept without blocking at every spawn (before
// admission) and in every cohort wait — a spawn waits only for what its own
// thread handed over before its latest verdict — and drained, blocking, by
// reap_eliminated(): at process exit, by an arm before its _exit, and by an
// altxd worker after each reply. A forked child drops the set it inherited.
#pragma once

#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "posix/fd.hpp"

namespace altx::posix {

/// One child's resource bill, decoded from wait4's rusage. Fields are the
/// subset the speculation ledger consumes; all zero when the kernel gave no
/// usage (it always does for reaped children on Linux).
struct ChildUsage {
  std::uint64_t cpu_ns = 0;      // user + system time
  std::uint64_t maxrss_kb = 0;   // peak resident set, KiB
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
};

[[nodiscard]] inline ChildUsage decode_rusage(const struct rusage& ru) {
  ChildUsage u;
  const auto tv_ns = [](const struct timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  u.cpu_ns = tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
  u.maxrss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
  return u;
}

/// wait4 retrying on EINTR. Same contract as waitpid(pid, status, flags):
/// returns the reaped pid, 0 when WNOHANG found nothing, -1 on error.
/// `usage` (optional) receives the child's rusage on a successful reap.
inline pid_t wait4_eintr(pid_t pid, int* status, int flags,
                         struct rusage* usage = nullptr) {
  while (true) {
    const pid_t r = ::wait4(pid, status, flags, usage);
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// A pidfd for `pid`: a descriptor that turns readable once the process
/// exits, so child exits can sit in the same poll(2) set as pipes and
/// timers. -1 where pidfd_open is unavailable (kernel < 5.3, a seccomp
/// filter); callers then fall back to a bounded poll plus wait4(WNOHANG).
[[nodiscard]] inline int open_pidfd(pid_t pid) {
#ifdef SYS_pidfd_open
  const long fd = ::syscall(SYS_pidfd_open, pid, 0);
  return fd >= 0 ? static_cast<int>(fd) : -1;
#else
  (void)pid;
  return -1;
#endif
}

/// Live CPU (user + system, ns) of a still-running child from
/// /proc/<pid>/stat. wait4's rusage only exists once the child is reaped;
/// a governed cohort wait needs the bill *before* death to enforce a CPU
/// budget, and /proc is the only place the kernel publishes it for a live
/// process. nullopt when the pid is gone or /proc is unreadable.
[[nodiscard]] inline std::optional<std::uint64_t> proc_cpu_ns(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/stat", static_cast<int>(pid));
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return std::nullopt;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) return std::nullopt;
  buf[n] = '\0';
  // The comm field is parenthesised and may contain spaces; parse from the
  // last ')' so a hostile process name cannot shift the columns.
  const char* p = nullptr;
  for (const char* q = buf; *q != '\0'; ++q) {
    if (*q == ')') p = q;
  }
  if (p == nullptr) return std::nullopt;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // After ") " come: state ppid pgrp session tty tpgid flags minflt cminflt
  // majflt cmajflt utime stime (fields 3..15 of proc(5)).
  if (std::sscanf(p + 1,
                  " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return std::nullopt;
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  if (hz <= 0) return std::nullopt;
  return (utime + stime) * (1'000'000'000ULL / static_cast<std::uint64_t>(hz));
}

/// A wait(2) status decoded once, instead of WIF* logic at every call site.
struct ExitInfo {
  bool exited = false;    // WIFEXITED
  bool signaled = false;  // WIFSIGNALED
  int exit_code = -1;     // WEXITSTATUS when exited
  int signal = 0;         // WTERMSIG when signaled
};

[[nodiscard]] inline ExitInfo decode_wait_status(int status) {
  ExitInfo info;
  if (WIFEXITED(status)) {
    info.exited = true;
    info.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    info.signaled = true;
    info.signal = WTERMSIG(status);
  }
  return info;
}

/// Classification of one child's end, assigned when it is reaped — or, for
/// a child still running at its block's verdict, by that verdict.
enum class ChildFate : std::uint8_t {
  kRunning,     // not yet exited (or not yet reaped)
  kCommitted,   // took the token and delivered its result (the winner)
  kTooLate,     // synchronized after the token was gone (section 3.2.1)
  kAborted,     // guard failed: child_abort
  kCrashed,     // died of a signal we did not send, or an unexpected exit —
                // includes a commit lost between token and result delivery
  kHung,        // still live at the deadline; killed by the parent
  kEliminated,  // healthy loser killed by the parent after a winner emerged
  kOverBudget,  // killed by a governed wait: wall/CPU budget blown or shed
                // under memory pressure — contained, not crashed
  kPredictedLoser,  // killed by a governed wait's prediction rule: elapsed
                    // wall overran the arm's own historical kill quantile
                    // (ALTX_PRED_KILL_Q) while a sibling was still live
};

const char* to_string(ChildFate fate);

/// The exit codes a child's protocol paths end with, besides 0 (delivered).
inline constexpr int kExitAbort = 42;    // guard failed, no synchronization
inline constexpr int kExitTooLate = 43;  // lost the race for the commit token

struct ChildStatus {
  pid_t pid = -1;  // -1: never forked (its fate says how it ended unforked)
  ChildFate fate = ChildFate::kRunning;
  int signal = 0;      // terminating signal when fate == kCrashed (0 = exit)
  int exit_code = -1;  // raw exit status when the child exited normally

  /// Resource bill from wait4 at reap time — valid for every fate,
  /// including losers we SIGKILLed (the kernel keeps the ledger for us).
  /// Zero in the verdict's view of a child the reap set reaps later: its
  /// bill arrives with its kChildUsage record.
  ChildUsage usage;

  /// Dirty-page census the child reported just before its sync point
  /// (kChildPages), read back from the shared census arena. Zero for a
  /// child that died before reaching a sync point — a mid-guard SIGKILL
  /// leaves its COW cost unknowable.
  std::uint64_t dirty_pages = 0;
  std::uint64_t dirty_bytes = 0;

  /// Parent-side wall clamps: CLOCK_MONOTONIC right after fork() returned
  /// the pid, and at reap — or at the verdict, for a child the verdict
  /// ended before it exited. reap_ns - spawn_ns is the arm's wall time as
  /// the history store records it.
  std::uint64_t spawn_ns = 0;
  std::uint64_t reap_ns = 0;
};

/// What the speculation cost, rolled up over the reaped children of one
/// block (paper section 3.1's bet, measured): the winner's work is the
/// price of the answer, everything else is the price of getting it fast.
struct SpeculationReport {
  std::uint64_t total_cpu_ns = 0;     // every child, winners and losers
  std::uint64_t winner_cpu_ns = 0;    // the committed child (0 = no winner)
  std::uint64_t wasted_cpu_ns = 0;    // total - winner: the losers' bill
  std::uint64_t discarded_pages = 0;  // losers' dirty COW pages, as reported
  std::uint64_t discarded_bytes = 0;  //   before their sync points
  int children_costed = 0;            // reaped children in this rollup

  /// Adds one reaped child's bill.
  void add(const ChildStatus& st);

  /// total work / winner work — 1.0 is free speculation, N is "we paid for
  /// N alternatives to get one answer". 0 when there is no winner to
  /// normalize by (FAIL / timeout: every cycle was wasted).
  [[nodiscard]] double overhead_ratio() const {
    if (winner_cpu_ns == 0) return 0.0;
    return static_cast<double>(total_cpu_ns) /
           static_cast<double>(winner_cpu_ns);
  }
};

class SpeculationGovernor;

/// A block's trace ids, stamped on its records whoever emits them and
/// whenever: a child reaped after its block returned is still told under
/// that block's race, trace and supervisor attempt.
struct BlockIds {
  std::uint32_t race_id = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t attempt = 0;
};

/// Where one child's records and history sample go, and what its parent did
/// to it: everything record_exit needs besides the wait status.
struct ReapNote {
  int arm = 0;  // 1-based arm index
  BlockIds ids;
  ChildFate kill_fate = ChildFate::kRunning;  // the kill we sent, if any
  bool frame_out = false;       // its commit frame was out before it died
  std::uint64_t site_id = 0;    // history key; 0 = no sample
  std::uint32_t history_arm = 0;  // the arm's entry under site_id
  bool censored = false;        // a hedged arm: only a commit is a sample
};

/// The one classifier, shared by a group's reaps and the reap set's: gives
/// `st` its fate from the wait status (a fate the verdict already gave it
/// stands), its bill, and reap_ns when unset; emits kChildFate and
/// kChildUsage under the note's ids and the fate_* metric; and folds the
/// history sample in.
void record_exit(ChildStatus& st, const ReapNote& note, int wait_status,
                 const ChildUsage& usage);

/// One block's speculation bill, completed by whoever reaps its last child:
/// then it emits kSpecReport and rolls the spec_* metrics up.
struct BlockBill {
  BlockIds ids;
  SpeculationReport rep;
  int outstanding = 0;  // children still to be reaped

  /// Adds a reaped child; emits the report when none is outstanding.
  void add(const ChildStatus& st);
  /// Emits kSpecReport and the spec_* metrics (tracing on).
  void emit() const;
};

/// A child its block's verdict ended before it exited, as the reap set
/// holds it: its fate (the verdict's), its pidfd, and whom its bill,
/// records, sample and token belong to.
struct DeferredChild {
  ChildStatus st;
  ReapNote note;
  Fd pidfd;
  /// Its result pipe, kept while a frame may still arrive: when the block
  /// had a winner, a frame found here at reap is a second commit.
  Fd result;
  bool block_won = false;
  SpeculationGovernor* governor = nullptr;  // returns one token at reap
  std::shared_ptr<BlockBill> bill;
  std::uint64_t thread = 0;      // the thread that handed it over, and
  std::uint64_t generation = 0;  //   in which hand-off (set by the set)
};

/// Hands children to the process-wide reap set: one block's, in one call.
void defer_reap(std::vector<DeferredChild> children);

/// Reaps, without blocking, every child in the set that has exited. At a
/// spawn (`at_spawn`), children that this thread handed over before its
/// latest hand-off are reaped blocking instead — killed a whole block ago,
/// they are all but gone — so a thread's blocks never leave more than one
/// block's children in the set when the next one starts.
void sweep_eliminated(bool at_spawn = false);

/// Waits up to `timeout` for a child in the set to exit (all of them may
/// still be dying), then sweeps: a governed admission waiting for a token
/// gets it back the moment the loser holding it dies.
void await_eliminated(std::chrono::microseconds timeout);

/// Blocks until every child in the reap set is reaped, its fate, bill,
/// history sample and governor token delivered. Runs at process exit too.
void reap_eliminated();

/// Frames found when the reap set reaped a child whose block had a winner:
/// commits after the one the verdict took (the at-most-once breach the
/// checker hunts). Process-wide, never reset.
[[nodiscard]] std::uint64_t second_commits();

}  // namespace altx::posix
