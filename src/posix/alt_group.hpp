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
//                   the siblings and returns without waiting for them to
//                   die (section 3.2.1's asynchronous elimination: once the
//                   token is taken no loser can commit, and a loser's pages
//                   are private). It returns FAIL as soon as every child has
//                   aborted or exited without synchronizing — it never sits
//                   out the TIMEOUT once no child can win, nor a failed
//                   child's exit. In a child: attempts the synchronization.
//
// Elimination: the verdict SIGKILLs the losers — no loser runs another
// instruction, not even a signal handler of its own — writes a heap
// winner's release byte, returns every governor token the block still
// holds (tokens are block-scoped: none waits for a dying loser), reaps
// whatever has already exited, and hands every other child to the
// process-wide reap set (posix/reap.hpp), which reaps it later and delivers
// what a reap owes — its kChildFate and kChildUsage records under the
// block's ids, its history sample, its share of the block's kSpecReport. The group's own view
// (child_statuses, speculation_report, race<T>'s RaceReport) is the block
// at its verdict: a child not yet reaped then reads as committed if its
// frame was out, as aborted if its abort frame was, and otherwise as the
// fate of the kill the verdict sent it; its bill is not in that view.
//
// At-most-once synchronization is a 0-1 semaphore on the process's commit
// board (posix/board.hpp): the parent deposits a single token in the
// block's token word; the first child to count it down with a CAS commits;
// later children find it at zero and are "too late" (section 3.2.1) — they
// terminate themselves. Each child also leaves its standing at the token
// and its dirty-page census in a word of its own there, which survive a
// kill. A block maps, opens and closes no shared memory of its own: its
// descriptors are each forked arm's result pipe and pidfd, and a heap
// group's release pipe.
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
// parent, a pidfd — a child whose pidfd cannot be opened is a failed fork.
// One poll(2) set over those descriptors wakes the parent when a result
// arrives or a child exits, and every wait the group does — alt_wait, the
// deadline kill, the fork-EAGAIN backoff — is that one wait. Every kill is
// one SIGKILL sent through the child's pidfd. A child whose pidfd is
// readable but that wait4 no longer finds (ECHILD: SIGCHLD ignored, or a
// waitpid(-1) elsewhere) has exited all the same: its frame or our kill
// gives its fate, crashed when there is neither, and it has no bill.
//
// The same wait enforces every per-child deadline, its poll timeout being
// the earliest of them: in a governed group (posix/governor.hpp), the
// per-arm wall and CPU budgets, the plan's predicted-kill deadlines
// (posix/predictor.hpp) and pressure shedding. A kill records its fate in
// the child's slot, so the reaper classifies from one source; the live-arm
// count the predicted and pressure kills spare the last of is this group's
// own. There is no other thread or process involved, so a block run inside
// a forked arm is held to its budgets exactly like one run in the process
// that built the governor.
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
// Supervision: every child's fate is classified when it is reaped, or by
// the verdict that ended it (committed / aborted / too-late /
// crashed(signal) / hung / eliminated),
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

#include <poll.h>
#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "posix/alt_heap.hpp"
#include "posix/board.hpp"
#include "posix/fault.hpp"
#include "posix/fd.hpp"
#include "posix/reap.hpp"

namespace altx::posix {

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

  /// The history entry (AltGroupOptions::site_id, history_arm) the arm's
  /// sample folds into; 0 = the arm's own index.
  std::uint32_t history_arm = 0;

  /// A hedged arm: it ran only from its late start, so only its commit is a
  /// history sample.
  bool censored = false;
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

  /// Stable identity of the block for the history store (obs/history.hpp):
  /// when nonzero and a store is active, every reaped arm's wall, CPU and
  /// success fold into its (site_id, arm) entry, whoever reaps it.
  std::uint64_t site_id = 0;
};

namespace detail {

/// A bump arena over a fixed buffer that spills to the heap: the storage of
/// one block's per-arm state. Inline memory is given back with its buffer.
class BlockArena {
 public:
  BlockArena(std::byte* buffer, std::size_t size)
      : begin_(reinterpret_cast<std::uintptr_t>(buffer)),
        at_(begin_),
        end_(begin_ + size) {}

  void* allocate(std::size_t bytes, std::size_t align) {
    const std::uintptr_t p = (at_ + align - 1) & ~(align - 1);
    if (p + bytes <= end_) {
      at_ = p + bytes;
      return reinterpret_cast<void*>(p);
    }
    return ::operator new(bytes);
  }

  void deallocate(void* p) noexcept {
    const auto at = reinterpret_cast<std::uintptr_t>(p);
    if (at < begin_ || at >= end_) ::operator delete(p);
  }

 private:
  std::uintptr_t begin_;
  std::uintptr_t at_;
  std::uintptr_t end_;
};

template <typename T>
struct ArenaAllocator {
  using value_type = T;
  BlockArena* arena;

  explicit ArenaAllocator(BlockArena* a) noexcept : arena(a) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena(other.arena) {}

  T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    return static_cast<T*>(arena->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept { arena->deallocate(p); }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena == other.arena;
  }
};

template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace detail

struct AltWinner {
  int index = 0;       // 1-based alternative number (alt_spawn's return)
  Bytes result;        // bytes the winner passed to child_commit
  std::size_t pages_absorbed = 0;
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
  /// Precondition with a heap: the parent writes nothing to the arena
  /// between alt_spawn and alt_wait — it is suspended there, as the paper's
  /// ALTBEGIN suspends it. The absorb copies the winner's pages over the
  /// parent's, and a nested winner's pages include every page its parent
  /// arm wrote before the fork, as it stood then.
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
  [[noreturn]] void child_commit(std::span<const std::uint8_t> result);

  /// Child side, collect-all: delivers a result without taking the commit
  /// token — every child's result is wanted. Never returns. A FaultInjector
  /// sync point; an injected kDropCommit loses the result, which fails the
  /// collect-all wait like any crash.
  [[noreturn]] void child_deliver(std::span<const std::uint8_t> result);

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

  /// Per-arm classification, indexed by arm - 1: the block at its verdict.
  /// After alt_wait no kRunning entries remain; a child the verdict ended
  /// before it exited reads as the verdict saw it, with no usage (the reap
  /// set bills it later, in its kChildUsage record).
  [[nodiscard]] std::span<const ChildStatus> child_statuses() const {
    return status_;
  }

  /// How many children ended with `fate` so far.
  [[nodiscard]] int count_fate(ChildFate fate) const;

  /// Why the last alt_wait came out the way it did.
  [[nodiscard]] WaitVerdict verdict() const { return verdict_kind_; }

  /// The speculation ledger over the children reaped by the verdict:
  /// wasted CPU, discarded COW pages, overhead ratio. A child the reap set
  /// reaps later adds its share to the block's kSpecReport and the spec_*
  /// metrics, not to this view.
  [[nodiscard]] SpeculationReport speculation_report() const;

  /// The trace id grouping this block's events (0 when tracing is off).
  [[nodiscard]] std::uint32_t race_id() const { return ids_.race_id; }

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::time_point kNever = Clock::time_point::max();

  /// Parent-side descriptors of one arm, parallel to status_.
  struct Slot {
    Pipe result;  // child -> parent: payload + heap page runs, one frame
                  // (a heap winner refused the pull sends a patch after it)
    Fd pidfd;     // readable once the child exits; every kill goes here
    Clock::time_point spawned;  // fork returned; budgets count from here
    // What our kill means: kHung (deadline), kEliminated, or — governed —
    // kOverBudget / kPredictedLoser for `gov_reason`; kRunning = not killed
    // by us.
    ChildFate kill_fate = ChildFate::kRunning;
    GovKillReason gov_reason{};
    bool ready = false;      // a frame is waiting in the result pipe
    std::uint64_t frame_len = 0;  // its length word, once read (0: unread)
    bool delivered = false;  // its frame was taken (winner / collect-all)
    bool aborted = false;    // its abort frame was read: it is on its way out
    bool deferred = false;   // handed to the reap set at the verdict
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
  /// pending arms unforked, kills the survivors as eliminated, returns
  /// every token still held, reaps what has exited and hands the rest to
  /// the reap set. Idempotent.
  void end_cohort();
  /// end_cohort's hand-off of every unreaped child to the reap set, with
  /// the block's bill when any is handed over.
  void hand_off();
  /// child_commit / child_deliver / child_abort (no result).
  [[noreturn]] void child_sync(
      std::optional<std::span<const std::uint8_t>> result, bool take_token);
  /// Heap winner, frame sent: waits for the release byte, and sends its
  /// patch frame when the byte asks for one. Returns if the parent dies.
  void await_release();
  /// alt_wait / alt_wait_all: wait for the verdict, eliminate, account.
  void settle(std::chrono::milliseconds timeout, bool collect_all);
  /// Reads the length word of child i's waiting frame, once. An empty
  /// frame is an abort: the child is marked aborted and is ready no more.
  void peek_frame(std::size_t i);
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
  /// Marks every result pipe that holds a frame ready, without waiting —
  /// so no kill reaches a heap winner whose frame is already out, and the
  /// verdict reads each child by the frame it sent. Returns whether it
  /// found one.
  bool poll_frames();
  /// The cohort's one wait: sends every kill that is due, then polls every
  /// open result pipe and every unreaped child's pidfd until one is ready,
  /// `deadline` passes or the next kill falls due, marks frames ready, and
  /// reaps every child that exited.
  void wait_cohort(Clock::time_point deadline);
  /// Sends the kills that are due — governed: budget, predicted and
  /// pressure kills — and returns when the next one falls due (kNever:
  /// none).
  Clock::time_point enforce_deadlines();
  /// SIGKILLs child i and records what the kill means.
  void kill_child(std::size_t i, ChildFate fate);
  void governed_kill(std::size_t i, GovKillReason reason);
  void emit_governed_kill(std::size_t i) const;
  void reap(std::size_t i, int flags);
  [[nodiscard]] bool reaped(std::size_t i) const {
    return status_[i].fate != ChildFate::kRunning;
  }
  [[nodiscard]] bool all_reaped() const;
  /// Not forked yet, and not ended unforked either.
  [[nodiscard]] bool pending(std::size_t i) const {
    return status_[i].pid < 0 && !reaped(i);
  }
  /// Unreaped, without a frame out and not yet killed by us; a pending arm
  /// is live.
  [[nodiscard]] bool live(std::size_t i) const {
    const Slot& slot = slots_[i];
    return !reaped(i) && !slot.delivered && !slot.ready && !slot.aborted &&
           slot.kill_fate == ChildFate::kRunning;
  }
  void kill_survivors(ChildFate fate);
  /// Returns the tokens that neither a running nor a pending arm needs.
  void release_spare_tokens();
  /// What record_exit needs to know about child i besides its status.
  [[nodiscard]] ReapNote note(std::size_t i) const;
  /// A reap of child i by the group: frees its slot, reads its census and
  /// hands it to record_exit. No status: it was reaped elsewhere (ECHILD).
  void on_exit(std::size_t i, std::optional<int> status,
               const ChildUsage& usage);
  /// Child i's dirty-page census from its board word, if it published one.
  void read_census(std::size_t i);
  void publish_census();  // child side, before the sync point
  /// Parent side: child i took a commit token in a block that has a winner.
  [[nodiscard]] bool took_token(std::size_t i) const;
  /// Child side, second_token_ only: holds a token holder until a second
  /// arm takes the other token or every other arm passed it.
  void await_second_holder() const;
  /// Parent side: emits the block's bill when the verdict reaped every
  /// child (hand_off gives it to the reap set otherwise).
  void finalize_accounting();

  AltGroupOptions opts_;
  // The block's own storage, sized for a few arms: the per-arm state, the
  // poll set and the hand-off list live in the group object — on the
  // caller's stack, for race<T> — so what the parent writes between its
  // first fork and its verdict lands on pages it writes anyway, not on heap
  // pages it shares with its arms. A larger block spills to the heap.
  static constexpr std::size_t kInlineBytes = 1024;
  alignas(std::max_align_t) std::byte inline_[kInlineBytes];
  detail::BlockArena arena_{inline_, kInlineBytes};
  detail::ArenaVector<Slot> slots_{detail::ArenaAllocator<Slot>(&arena_)};
  // One per arm; pid -1 until forked.
  detail::ArenaVector<ChildStatus> status_{
      detail::ArenaAllocator<ChildStatus>(&arena_)};
  ArmBody body_;  // what a forked arm runs; empty = body-less alt_spawn
  Clock::time_point admitted_;  // launch delays count from here
  int cap_ = 0;      // k: arms that may run at once
  int running_ = 0;  // forked and not yet reaped
  int pending_ = 0;  // not forked yet, not ended unforked
  // The block's words on the process's commit board: the token word and
  // each arm's standing and census.
  BoardBlock board_;
  // Sized at spawn, before the first fork, so the parent allocates nothing
  // while its arms run: the cohort wait's poll set and the owner of each
  // entry (child, is_pidfd), the hand-off list and the block's bill.
  detail::ArenaVector<pollfd> pollset_{
      detail::ArenaAllocator<pollfd>(&arena_)};
  detail::ArenaVector<std::pair<std::size_t, bool>> poll_owner_{
      detail::ArenaAllocator<std::pair<std::size_t, bool>>(&arena_)};
  detail::ArenaVector<DeferredChild> handoff_{
      detail::ArenaAllocator<DeferredChild>(&arena_)};
  std::shared_ptr<BlockBill> bill_;
  bool accounted_ = false;  // the bill is emitted, or with the reap set
  int out_ = -1;  // child side: the write end of its own result pipe, which
                  // its parent's slot owns
  Pipe release_;  // heap groups: parent -> winner, one byte (end_cohort)
  pid_t parent_ = 0;  // heap groups: the forking process, set at spawn
  std::vector<Bytes> results_;  // collect-all: delivered payloads
  int my_index_ = 0;  // 0 in parent
  std::uint64_t child_run_t0_ = 0;  // child side: arm_run span begin
  Clock::time_point next_shed_check_{};  // governed: next pressure look
  int tokens_held_ = 0;      // admission tokens taken for this cohort
  int tokens_released_ = 0;  // ... of which already returned
  BlockIds ids_;  // the block's race id (children inherit it), trace id
                  // and supervisor attempt, stamped on its records
  std::uint64_t start_ns_ = 0;       // alt_spawn timestamp (traced runs)
  std::uint64_t fault_attempt_ = 0;  // attempt id children consult
  bool spawned_ = false;
  bool decided_ = false;
  bool second_token_ = false;  // ALTX_TEST_BREAK_AT_MOST_ONCE sabotage
  std::optional<AltWinner> verdict_;
  WaitVerdict verdict_kind_ = WaitVerdict::kUndecided;
};

}  // namespace altx::posix
