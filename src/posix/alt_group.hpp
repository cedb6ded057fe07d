// alt_spawn / alt_wait over real POSIX processes (paper section 3.2).
//
// The paper's two primitives, implemented with the same UNIX machinery the
// authors measured:
//
//   alt_spawn(n)  — forks n alternates; returns 0 in the parent and 1..n in
//                   the children (the switch() idiom of section 3.2). Every
//                   child gets a COW view of the parent's whole address
//                   space, courtesy of fork().
//
//   alt_wait(t)   — in the parent: waits (bounded by the TIMEOUT) for the
//                   first child to synchronize, absorbs its result (and, when
//                   an AltHeap is attached, its dirty pages), then eliminates
//                   the siblings, killing and reaping them before it
//                   returns (section 3.2.1's synchronous elimination, the
//                   one behaviour a block has). It returns FAIL as soon as
//                   every child has exited without synchronizing — it never
//                   sits out the TIMEOUT once no child can win. In a child:
//                   attempts the synchronization.
//
// At-most-once synchronization is a 0-1 semaphore built from a pipe: the
// parent deposits a single token byte; the first child to read it commits;
// later children find the pipe empty and are "too late" (section 3.2.1) —
// they terminate themselves.
//
// Absorbing a heap (AltGroupOptions::heap): the winner's frame carries its
// result and its dirty pages as runs, not the pages' bytes, and the winner
// then waits on the group's release pipe. The parent reads the runs
// straight out of the winner's arena (AltHeap::absorb_from, one
// process_vm_readv) and writes the release byte; where the kernel refuses
// the pull, or there are more runs than one call takes, the byte asks for a
// patch frame instead, which the parent reads — polling the winner's pidfd
// too, and no later than the deadline — and applies. The release is always
// an explicit byte, never EOF — a child forked by another thread may hold
// the write end — and the group's one teardown (end_cohort: the verdict,
// a failed fork, the destructor, which also covers an exception out of the
// pull) sends it before any wait for a child, so none of them waits on a
// winner that is waiting for it. A winner whose parent
// dies notices through getppid() and exits. Since a heap winner's pages
// live only as long as it does, no kill — at the deadline or by the
// governor — is sent to a child whose frame is already out, and a frame
// whose sender died before the pull is void: that child lost. A group
// without a heap writes its frame and exits as it always did.
//
// The cohort wait: each child has a result pipe of its own and, in the
// parent, a pidfd. One poll(2) set over those descriptors wakes the parent
// when a result arrives or a child exits, and every wait the group does —
// alt_wait, the deadline kill, the SIGTERM grace window, the fork-EAGAIN
// backoff — is that one wait. Where pidfd_open is unavailable the poll
// timeout is bounded and exits are found by wait4(WNOHANG) instead.
//
// The same wait enforces every per-child deadline, its poll timeout being
// the earliest of them: the SIGKILL that ends a SIGTERM's grace window
// and, in a governed group (posix/governor.hpp), the per-arm wall and CPU
// budgets, the plan's predicted-kill deadlines (posix/predictor.hpp) and
// pressure shedding. A kill records its fate in the child's slot, so the
// reaper classifies from one source; the live-arm count the predicted and
// pressure kills spare the last of is this group's own. There is no other
// thread or process involved, so a block run inside a forked arm is held
// to its budgets exactly like one run in the process that built the
// governor.
//
// Collect-all (section 5.2's AND-parallelism, posix::await_all): children
// finish with child_deliver, which ships the result without taking the
// commit token, and the parent calls alt_wait_all, which succeeds when every
// child has delivered and fails at the first child that exits without
// delivering. Admission, fault plans, fates, billing and tracing are the
// same as for a race.
//
// The launch schedule: every arm has a start delay and a kill deadline
// (AltGroupOptions::launch), and at most k arms run at once, k being the
// tokens the governor granted (posix/governor.hpp; all n when ungoverned).
// alt_spawn forks, in index order, every arm whose delay is zero while a
// slot is free; the parent's wait forks each remaining arm once its delay
// has passed and a slot is free — a slot frees when an arm is reaped
// without ending the block — again in index order. A deferred arm runs the
// arm body handed to alt_spawn. An arm not yet forked counts as live (the
// last-live-arm rule spares its siblings as if it ran), a pressure shed
// cancels it, and the verdict ends it unforked: it keeps pid -1 and reads
// as eliminated after a winner, hung at the deadline, and aborted when the
// plan skipped it. This one schedule is how race<T> defers its planner's
// hedged arms, how hedged() staggers its copies, and how a block granted
// fewer tokens than arms runs k at a time with its original arm indices
// and one deadline.
//
// Supervision: every child's fate is classified when it is reaped
// (committed / aborted / too-late / crashed(signal) / hung / eliminated),
// and a failed alt_wait distinguishes "every guard failed" from "deadline
// passed with children still live" — the information a retry policy needs
// (see posix/supervisor.hpp). An optional FaultInjector is consulted at the
// children's sync points and before each fork, so the real backend can run
// the same seeded fault matrix as the simulator.
//
// Observability: when tracing is enabled (ALTX_TRACE, or programmatically —
// see obs/trace.hpp), every group takes a fresh race id and both sides
// narrate into the shared ring: the parent emits race_begin / fork /
// child_fate / race_decided, each child emits guard_start and its own
// synchronization outcome (commit_attempt, commit_won, too_late,
// guard_fail). Child events survive SIGKILL — the ring is a MAP_SHARED
// mapping created before the forks. Disabled, each site costs one
// predicted branch.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "posix/alt_heap.hpp"
#include "posix/fault.hpp"
#include "posix/fd.hpp"
#include "posix/reap.hpp"

namespace altx::posix {

/// Classification of one child's end, assigned when it is reaped.
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

struct ChildStatus {
  pid_t pid = -1;  // -1: never forked (its fate says how it ended unforked)
  ChildFate fate = ChildFate::kRunning;
  int signal = 0;      // terminating signal when fate == kCrashed (0 = exit)
  int exit_code = -1;  // raw exit status when the child exited normally

  /// Resource bill from wait4 at reap time — valid for every fate,
  /// including losers we SIGKILLed (the kernel keeps the ledger for us).
  ChildUsage usage;

  /// Dirty-page census the child reported just before its sync point
  /// (kChildPages), read back from the shared census arena. Zero for a
  /// child that died before reaching a sync point — a mid-guard SIGKILL
  /// leaves its COW cost unknowable.
  std::uint64_t dirty_pages = 0;
  std::uint64_t dirty_bytes = 0;

  /// Parent-side wall clamps: CLOCK_MONOTONIC right after fork() returned
  /// the pid, and at reap. reap_ns - spawn_ns is the arm's wall time as the
  /// history store records it (for losers it includes the elimination lag —
  /// the price actually paid for launching the arm).
  std::uint64_t spawn_ns = 0;
  std::uint64_t reap_ns = 0;
};

/// Why alt_wait returned nullopt — or that it did not.
enum class WaitVerdict : std::uint8_t {
  kUndecided,  // alt_wait has not (successfully) completed
  kWinner,     // a child committed; the AltWinner was returned
               // (collect-all: every child delivered)
  kAllFailed,  // every child exited without committing (guards failed,
               // crashed, or lost their commit) before the deadline
               // (collect-all: a child exited without delivering)
  kTimeout,    // the deadline passed with at least one child still live
};

const char* to_string(WaitVerdict verdict);

class SpeculationGovernor;
enum class GovKillReason : std::uint8_t;

/// One arm's entry in a group's launch schedule.
struct ArmLaunch {
  /// Never fork the arm: it reads as aborted (a planner skip).
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Fork no sooner than this long (ns) after the block was admitted.
  std::uint64_t delay_ns = 0;

  /// Predicted-kill deadline (ns of wall since the arm's fork), enforced by
  /// the cohort wait of a governed group; 0 = never predicted-killed.
  /// Filled by race<T>() from the SpeculationPlanner.
  std::uint64_t kill_ns = 0;
};

/// What a forked arm runs (posix::race<T>, await_all, hedged()): gets its
/// 1-based arm index and must end in child_commit, child_deliver or
/// child_abort; returning aborts the arm.
using ArmBody = std::function<void(int arm)>;

struct AltGroupOptions {
  AltHeap* heap = nullptr;        // optional shared-state arena to absorb
  FaultInjector* fault = nullptr; // optional seeded fault plan

  /// Resource governor: admission and child rlimits at spawn, per-arm
  /// budgets and pressure shedding in the cohort wait. nullptr resolves to
  /// SpeculationGovernor::global() — the env-configured process governor,
  /// itself nullptr when no ALTX_GOV_* knob is set, so ungoverned runs cost
  /// one null check.
  SpeculationGovernor* governor = nullptr;

  /// The launch schedule, one entry per arm (indexed by arm - 1); arms
  /// past its end launch at once with no kill deadline.
  std::vector<ArmLaunch> launch;
};

struct AltWinner {
  int index = 0;       // 1-based alternative number (alt_spawn's return)
  Bytes result;        // bytes the winner passed to child_commit
  std::size_t pages_absorbed = 0;
};

/// What the speculation cost, rolled up over every reaped child of one
/// block (paper section 3.1's bet, measured): the winner's work is the
/// price of the answer, everything else is the price of getting it fast.
struct SpeculationReport {
  std::uint64_t total_cpu_ns = 0;     // every child, winners and losers
  std::uint64_t winner_cpu_ns = 0;    // the committed child (0 = no winner)
  std::uint64_t wasted_cpu_ns = 0;    // total - winner: the losers' bill
  std::uint64_t discarded_pages = 0;  // losers' dirty COW pages, as reported
  std::uint64_t discarded_bytes = 0;  //   before their sync points
  int children_costed = 0;            // reaped children in this rollup

  /// total work / winner work — 1.0 is free speculation, N is "we paid for
  /// N alternatives to get one answer". 0 when there is no winner to
  /// normalize by (FAIL / timeout: every cycle was wasted).
  [[nodiscard]] double overhead_ratio() const {
    if (winner_cpu_ns == 0) return 0.0;
    return static_cast<double>(total_cpu_ns) /
           static_cast<double>(winner_cpu_ns);
  }
};

class AltGroup {
 public:
  explicit AltGroup(AltGroupOptions options = {});
  ~AltGroup();

  AltGroup(const AltGroup&) = delete;
  AltGroup& operator=(const AltGroup&) = delete;

  /// Forks n alternates, body-less (the switch() form of section 3.2):
  /// returns 0 in the parent, 1..n in each child, and in children the
  /// process must finish via child_commit or child_abort. It forks the
  /// first k arms at once, k being the governor's grant; the other n - k,
  /// and any arm the launch schedule defers, are never forked and read as
  /// aborted (a deferred fork needs an arm body). On a fork() failure the
  /// partial cohort is killed and reaped before SystemError is thrown, so
  /// the caller can retry with a fresh group and no process leaks.
  int alt_spawn(int n);

  /// Runs n arms on the launch schedule: every forked child runs
  /// `body(arm)` and never returns. Forks what may start now; the parent's
  /// alt_wait / alt_wait_all forks the rest as their delays pass and slots
  /// free, and throws SystemError — after ending the cohort — if one of
  /// those forks fails.
  void alt_spawn(int n, ArmBody body);

  /// Child side: attempt the synchronization with a result payload. If this
  /// child is first, its payload (and dirty heap pages) reach the parent;
  /// otherwise it is too late. Never returns. Consults the FaultInjector
  /// first: the child may crash, hang, stall, or lose the commit here.
  [[noreturn]] void child_commit(const Bytes& result);

  /// Child side, collect-all: delivers a result without taking the commit
  /// token — every child's result is wanted. Never returns. A FaultInjector
  /// sync point; an injected kDropCommit loses the result, which fails the
  /// collect-all wait like any crash.
  [[noreturn]] void child_deliver(const Bytes& result);

  /// Child side: the guard failed; abort without synchronizing. Never
  /// returns. Also a FaultInjector sync point.
  [[noreturn]] void child_abort();

  /// Parent side: waits for a winner. Returns std::nullopt when every child
  /// exited without committing or the timeout expired (the FAIL arm);
  /// verdict() then says which. Idempotent: a second call returns the same
  /// verdict.
  std::optional<AltWinner> alt_wait(std::chrono::milliseconds timeout);

  /// Parent side, collect-all: waits until every child has delivered and
  /// returns their results in child order. Returns std::nullopt at the first
  /// child that exits without delivering (kAllFailed — its surviving
  /// siblings are eliminated) or when the timeout expires (kTimeout).
  /// Idempotent. A collect-all group takes no AltHeap: absorbing one child's
  /// pages before a sibling fails would make a failed block's effects
  /// visible.
  std::optional<std::vector<Bytes>> alt_wait_all(
      std::chrono::milliseconds timeout);

  /// Number of children that aborted (available after alt_wait).
  [[nodiscard]] int aborted_children() const {
    return count_fate(ChildFate::kAborted);
  }

  /// Per-arm classification, indexed by arm - 1. Fates are final once the
  /// child is reaped: after alt_wait no kRunning entries remain.
  [[nodiscard]] const std::vector<ChildStatus>& child_statuses() const {
    return status_;
  }

  /// How many children ended with `fate` so far.
  [[nodiscard]] int count_fate(ChildFate fate) const;

  /// Why the last alt_wait came out the way it did.
  [[nodiscard]] WaitVerdict verdict() const { return verdict_kind_; }

  /// The speculation ledger over the reaped children: wasted CPU,
  /// discarded COW pages, overhead ratio. Complete after alt_wait.
  [[nodiscard]] SpeculationReport speculation_report() const;

  /// The trace id grouping this block's events (0 when tracing is off).
  [[nodiscard]] std::uint32_t race_id() const { return race_id_; }

 private:
  /// One census slot per child in a MAP_SHARED arena: the child writes its
  /// dirty-page count just before its sync point (where a fault injector
  /// may SIGKILL it), the parent reads it at rollup. `ready` is the
  /// publication flag — a torn write is never read.
  struct CensusSlot {
    std::uint64_t dirty_pages;
    std::uint64_t dirty_bytes;
    std::atomic<std::uint32_t> ready;
  };

  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNever = Clock::time_point::max();

  /// Parent-side descriptors of one arm, parallel to status_.
  struct Slot {
    Pipe result;  // child -> parent: payload + heap page runs, one frame
                  // (a heap winner refused the pull sends a patch after it)
    Fd pidfd;     // readable once the child exits; invalid = poll blind
    Clock::time_point spawned;  // fork returned; budgets count from here
    // What our kill means: kHung (deadline), kEliminated, or — governed —
    // kOverBudget / kPredictedLoser for `gov_reason`; kRunning = not killed
    // by us.
    ChildFate kill_fate = ChildFate::kRunning;
    GovKillReason gov_reason{};
    Clock::time_point term_deadline = kNever;  // SIGTERM sent; SIGKILL due
    bool ready = false;      // a frame is waiting in the result pipe
    bool delivered = false;  // its frame was taken (winner / collect-all)
  };

  /// alt_spawn's two forms: admission, the cohort's shared descriptors and
  /// the forks due now. Returns the arm index in a body-less child.
  int spawn(int n);
  /// Forks every pending arm whose delay has passed, in index order, while
  /// fewer than the granted k run. Returns the arm index in a body-less
  /// child; a child with a body runs it and never returns.
  int launch_due();
  /// When launch_due next has an arm to fork (kNever: none, or no slot).
  [[nodiscard]] Clock::time_point next_launch() const;
  [[nodiscard]] std::uint64_t delay_ns(std::size_t i) const {
    return i < opts_.launch.size() ? opts_.launch[i].delay_ns : 0;
  }
  /// When pending arm i may be forked.
  [[nodiscard]] Clock::time_point due_at(std::size_t i) const {
    return admitted_ + std::chrono::nanoseconds(delay_ns(i));
  }
  /// Forks arm i; true in the child. A failed fork ends the cohort and
  /// throws SystemError.
  bool fork_arm(std::size_t i);
  /// Ends pending arm i unforked, with `fate`.
  void cancel(std::size_t i, ChildFate fate);
  /// The cohort's one teardown (verdict, failed fork, destructor): ends
  /// pending arms unforked, kills the survivors as eliminated, reaps every
  /// child and returns the tokens still held. Idempotent.
  void end_cohort();
  /// child_commit / child_deliver / child_abort (result == nullptr).
  [[noreturn]] void child_sync(const Bytes* result, bool take_token);
  /// Heap winner, frame sent: waits for the release byte, and sends its
  /// patch frame when the byte asks for one. Returns if the parent dies.
  void await_release();
  /// alt_wait / alt_wait_all: wait for the verdict, eliminate, account.
  void settle(std::chrono::milliseconds timeout, bool collect_all);
  Bytes take_frame(std::size_t i);  // reads child i's one frame
  /// Absorbs winner i's page runs, read from its frame: pulled out of its
  /// arena, or patched in from a frame it sends when the pull is refused.
  /// Releases the winner either way and returns the pages absorbed, or
  /// nullopt when the winner died with its pages (or, asked for a patch,
  /// sent none by `deadline` and was killed): its frame is then void.
  std::optional<std::size_t> absorb_winner(std::size_t i, ByteReader& r,
                                           Clock::time_point deadline);
  /// Reads the patch frame winner i was asked for from `result`, until the
  /// frame is whole, the winner exits or `deadline` passes (nullopt).
  std::optional<Bytes> await_patch(std::size_t i, const Fd& result,
                                   Clock::time_point deadline);
  /// Writes the group's one release byte; no-op once sent or without a heap.
  void release_winner(std::uint8_t ask);
  /// Heap groups: marks every result pipe that holds a frame ready, without
  /// waiting, so no kill reaches a winner whose frame is already out.
  /// Returns whether it found one.
  bool poll_frames();
  /// The cohort's one wait: sends every kill that is due, then polls every
  /// open result pipe and every unreaped child's pidfd until one is ready,
  /// `deadline` passes or the next kill falls due, marks frames ready, and
  /// reaps every child that exited.
  void wait_cohort(Clock::time_point deadline);
  /// Sends the kills that are due — the SIGKILL ending a SIGTERM's grace
  /// and, governed, budget, predicted and pressure kills — and returns when
  /// the next one falls due (kNever: none).
  Clock::time_point enforce_deadlines();
  /// Signals child i (SIGTERM with a grace window, else SIGKILL) and
  /// records what the kill means.
  void kill_child(std::size_t i, ChildFate fate,
                  std::chrono::milliseconds grace);
  void governed_kill(std::size_t i, GovKillReason reason);
  void emit_governed_kill(std::size_t i, std::uint64_t stage) const;
  void reap(std::size_t i, int flags);
  [[nodiscard]] bool reaped(std::size_t i) const {
    return status_[i].fate != ChildFate::kRunning;
  }
  [[nodiscard]] bool all_reaped() const;
  /// Not forked yet, and not ended unforked either.
  [[nodiscard]] bool pending(std::size_t i) const {
    return status_[i].pid < 0 && !reaped(i);
  }
  /// Unreaped, undelivered and not yet killed by us; a pending arm is live.
  [[nodiscard]] bool live(std::size_t i) const {
    return !reaped(i) && !slots_[i].delivered && !slots_[i].ready &&
           slots_[i].kill_fate == ChildFate::kRunning;
  }
  void kill_survivors(ChildFate fate);
  /// Returns the tokens that neither a running nor a pending arm needs.
  void release_spare_tokens();
  void record_exit(std::size_t i, int status, const ChildUsage& usage);
  void publish_census();         // child side, before the sync point
  void finalize_accounting();    // parent side, once every child is reaped

  AltGroupOptions opts_;
  std::vector<Slot> slots_;  // one per arm
  std::vector<ChildStatus> status_;  // one per arm; pid -1 until forked
  ArmBody body_;  // what a forked arm runs; empty = body-less alt_spawn
  Clock::time_point admitted_;  // launch delays count from here
  int cap_ = 0;      // k: arms that may run at once
  int running_ = 0;  // forked and not yet reaped
  int pending_ = 0;  // not forked yet, not ended unforked
  CensusSlot* census_ = nullptr;  // shared arena, one slot per child
  std::size_t census_slots_ = 0;
  bool accounted_ = false;  // kSpecReport emitted / metrics rolled up
  Pipe token_;   // 0-1 semaphore: one byte, first reader commits
  Fd out_;       // child side: the write end of its own result pipe
  Pipe release_;  // heap groups: parent -> winner, one byte (end_cohort)
  pid_t parent_ = 0;  // child side: the process that forked it
  std::vector<Bytes> results_;  // collect-all: delivered payloads
  int my_index_ = 0;  // 0 in parent
  std::uint64_t child_run_t0_ = 0;  // child side: arm_run span begin
  Clock::time_point next_shed_check_{};  // governed: next pressure look
  int tokens_held_ = 0;      // admission tokens taken for this cohort
  int tokens_released_ = 0;  // ... of which already returned
  std::uint32_t race_id_ = 0;        // trace id; children inherit it
  std::uint64_t start_ns_ = 0;       // alt_spawn timestamp (traced runs)
  std::uint64_t fault_attempt_ = 0;  // attempt id children consult
  bool spawned_ = false;
  bool decided_ = false;
  std::optional<AltWinner> verdict_;
  WaitVerdict verdict_kind_ = WaitVerdict::kUndecided;
};

}  // namespace altx::posix
