#include "posix/alt_group.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <ctime>
#include <limits>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "posix/governor.hpp"

namespace altx::posix {

namespace {

constexpr int kExitLost = 77;  // injected: result lost after the sync point

// The release byte a heap group's winner waits for once its frame is out.
constexpr std::uint8_t kReleaseExit = 0;       // its pages are pulled: exit
constexpr std::uint8_t kReleaseSendPatch = 1;  // no pull: send a patch frame

// How often a heap winner waiting for its release byte looks whether its
// parent is still there: EOF cannot tell it, since a child forked by
// another thread of the parent may hold the pipe's write end.
constexpr int kOrphanCheckMs = 100;

// How long a sabotaged token holder waits for a second one: an arm that
// crashed, hangs or was never forked never reaches the token.
constexpr std::chrono::seconds kSecondHolderWait{1};

// In-place fork() EAGAIN retries: transient pid exhaustion (a sibling
// cohort mid-teardown, a fork storm elsewhere in the tree) usually clears
// in milliseconds, and abandoning the whole cohort to the supervisor's
// much slower backoff for it would be out of proportion.
constexpr int kForkRetries = 3;

/// How often a governed wait reads a live arm's CPU from /proc: a tenth of
/// the budget, so an overrun is caught within 10 % of it, bounded so tiny
/// budgets do not spin and huge ones are still looked at.
std::chrono::nanoseconds cpu_check_every(std::chrono::milliseconds budget) {
  return std::clamp<std::chrono::nanoseconds>(
      budget / 10, std::chrono::milliseconds(1),
      std::chrono::milliseconds(100));
}

/// On some hosts the first clone of a process stalls the caller for
/// milliseconds (up to ~15 ms measured on a 4-CPU VM, against ~0.1 ms for
/// every later fork), whether it forks a process or starts a thread. Arms
/// are forked one after another, so in a process's first cohort that stall
/// would hand arm 1 a head start of that much over its siblings. A
/// throwaway vfork takes it instead, once per process.
void absorb_first_clone() {
  static std::atomic<pid_t> cloned_in{0};  // the process that already did
  const pid_t self = ::getpid();
  if (cloned_in.load(std::memory_order_relaxed) == self) return;
  cloned_in.store(self, std::memory_order_relaxed);
  const pid_t pid = ::vfork();
  if (pid == 0) _exit(0);
  if (pid > 0) {
    int status = 0;
    wait4_eintr(pid, &status, 0);
  }
}

/// Whether a frame's bytes are waiting in `fd` (not merely EOF).
bool has_data(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  int r = 0;
  while ((r = ::poll(&pfd, 1, 0)) < 0 && errno == EINTR) {
  }
  return r > 0 && (pfd.revents & POLLIN) != 0;
}

/// An arm's last act: its frame is out (or it has none), so it reaps the
/// children its own blocks eliminated, then exits with `code`.
[[noreturn]] void exit_arm(int code) {
  reap_eliminated();
  _exit(code);
}

/// An arm's frame write. No exception may leave a forked arm — it would
/// unwind into its parent's code — so a parent that is gone (EPIPE where
/// SIGPIPE is ignored) ends the arm with `code` instead.
void send_frame(int fd,
                std::initializer_list<std::span<const std::uint8_t>> parts,
                int code) {
  try {
    write_frame(fd, parts);
  } catch (...) {
    exit_arm(code);
  }
}

}  // namespace

const char* to_string(WaitVerdict verdict) {
  switch (verdict) {
    case WaitVerdict::kUndecided: return "undecided";
    case WaitVerdict::kWinner: return "winner";
    case WaitVerdict::kAllFailed: return "all_failed";
    case WaitVerdict::kTimeout: return "timeout";
  }
  return "?";
}

AltGroup::AltGroup(AltGroupOptions options) : opts_(options) {
  if (opts_.governor == nullptr) {
    opts_.governor = SpeculationGovernor::global();
  }
}

AltGroup::~AltGroup() {
  if (my_index_ != 0) return;  // children never own the group
  try {
    end_cohort();
    finalize_accounting();
  } catch (...) {
    // Destructors must not throw; losing a reap here only leaks a zombie
    // until process exit.
  }
  board_.close();
}

int AltGroup::alt_spawn(int n) { return spawn(n); }

void AltGroup::alt_spawn(int n, ArmBody body) {
  ALTX_REQUIRE(body != nullptr, "AltGroup: alt_spawn needs an arm body");
  body_ = std::move(body);
  spawn(n);  // a child with a body never returns from here
}

int AltGroup::spawn(int n) {
  ALTX_REQUIRE(!spawned_, "AltGroup: alt_spawn called twice");
  ALTX_REQUIRE(n >= 1, "AltGroup: need at least one alternative");
  spawned_ = true;
  // Children that earlier verdicts ended and that have exited since are
  // reaped before this block adds its own.
  sweep_eliminated(/*at_spawn=*/true);
  // Deposit the single commit token: the 0-1 semaphore of section 3.2.1,
  // on the process's commit board. ALTX_TEST_BREAK_AT_MOST_ONCE is a
  // test-only sabotage knob for the equivalence checker (src/check/): it
  // deposits a second token, so two children can both "win" — the
  // at-most-once-commit violation altx-check must catch, shrink, and
  // replay. Never set it outside tests. A holder then waits for the second
  // holder (await_second_holder), so the double commit is on record at every
  // verdict, not only when the second frame beats the verdict's kill. The
  // knob is read at every block (about 0.1 µs): tests set and clear it while
  // the process runs.
  second_token_ = std::getenv("ALTX_TEST_BREAK_AT_MOST_ONCE") != nullptr;
  board_ = BoardBlock::open(n, second_token_ ? 2 : 1);
  if (opts_.fault != nullptr) fault_attempt_ = opts_.fault->begin_attempt();
  ids_.trace_id = obs::current_trace();
  ids_.attempt = obs::current_attempt();
  // The race id exists before admission so the queueing time is part of
  // this race's timeline — admission wait is wall time the caller pays.
  if (obs::enabled()) {
    ids_.race_id = obs::next_race_id();
    start_ns_ = obs::now_ns();
    obs::emit(obs::EventKind::kRaceBegin, ids_.race_id, 0,
              static_cast<std::uint64_t>(n));
  }
  cap_ = n;
  if (opts_.governor != nullptr) {
    // Admission before any fork: the grant k caps how many arms run at once.
    obs::ScopedPhase admission(obs::Phase::kAdmissionWait, ids_.race_id);
    opts_.governor->admit(n, &cap_);
    tokens_held_ = cap_;
  }
  admitted_ = Clock::now();
  obs::ScopedPhase fork_phase(obs::Phase::kFork, ids_.race_id);
  obs::prof_prewarm();  // stack bounds for the children's samplers
  absorb_first_clone();

  // A heap group's winner waits for one byte on this pipe; only the token
  // holder ever reads it.
  if (opts_.heap != nullptr) {
    release_ = Pipe::create();
    parent_ = ::getpid();
  }
  // Each arm's result pipe is made at its fork (fork_arm). Everything the
  // wait and the teardown fill is sized now, before the first fork.
  const auto arms = static_cast<std::size_t>(n);
  slots_.resize(arms);
  status_.resize(arms);
  pollset_.reserve(2 * arms);
  poll_owner_.reserve(2 * arms);
  handoff_.reserve(arms);
  bill_ = std::make_shared<BlockBill>();

  // Arms the plan skipped never run; without a body neither do the arms it
  // defers or those past the grant.
  pending_ = n;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::uint64_t delay = delay_ns(i);
    if (delay == ArmLaunch::kNever ||
        (body_ == nullptr && (delay > 0 || static_cast<int>(i) >= cap_))) {
      cancel(i, ChildFate::kAborted);
    }
  }
  const int who = launch_due();
  if (who > 0) fork_phase.cancel();  // only the parent ends its fork span
  return who;
}

int AltGroup::launch_due() {
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < slots_.size() && running_ < cap_; ++i) {
    if (!pending(i) || now < due_at(i)) continue;
    if (fork_arm(i)) {
      if (body_ == nullptr) return my_index_;
      try {
        body_(my_index_);
      } catch (...) {
        // An escaped exception is a failed guard, as in race().
      }
      child_abort();
    }
    if (delay_ns(i) > 0 && status_[i].pid > 0) {
      // The one staged-launch event: an arm forked late, by its schedule.
      obs::emit(obs::EventKind::kPredStage, ids_.race_id,
                static_cast<std::int16_t>(i + 1), delay_ns(i),
                opts_.launch[i].kill_ns);
    }
  }
  return 0;
}

AltGroup::Clock::time_point AltGroup::next_launch() const {
  if (running_ >= cap_) return kNever;  // a reap wakes the wait instead
  Clock::time_point next = kNever;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (pending(i)) next = std::min(next, due_at(i));
  }
  return next;
}

bool AltGroup::fork_arm(std::size_t i) {
  const int arm = static_cast<int>(i) + 1;
  Slot& slot = slots_[i];
  // The child keeps the write end of its own result pipe; the parent drops
  // it once the child is forked, so a child that dies without a frame
  // leaves EOF behind.
  slot.result = Pipe::create();
  const std::uint64_t fork_t0 = obs::enabled() ? obs::now_ns() : 0;
  std::uint64_t fork_call_ns = 0;  // fork(2) alone, traced runs
  pid_t pid = -1;
  for (int try_n = 0;; ++try_n) {
    const bool injected = opts_.fault != nullptr &&
                          opts_.fault->fork_fails(fault_attempt_, arm, try_n);
    if (!injected) {
      const std::uint64_t call_t0 = fork_t0 != 0 ? obs::now_ns() : 0;
      pid = ::fork();
      if (pid > 0 && fork_t0 != 0) fork_call_ns = obs::now_ns() - call_t0;
      if (pid >= 0) break;
    }
    const int err = injected ? EAGAIN : errno;
    // EAGAIN is pid/memory exhaustion and is often transient (a sibling
    // cohort mid-teardown); retry in place, briefly and jittered, before
    // abandoning the cohort to the supervisor's coarser backoff. The
    // backoff is a cohort wait, so children of this group that exit
    // meanwhile are reaped and give their pids back.
    if (err != EAGAIN || try_n >= kForkRetries) {
      slot.result = Pipe{};
      end_cohort();
      throw SystemError(injected ? "fork (injected fault)" : "fork", err);
    }
    const double u =
        Rng((fault_attempt_ << 32) ^
            (static_cast<std::uint64_t>(arm) * 0x9e3779b97f4a7c15ULL) ^
            static_cast<std::uint64_t>(try_n))
            .uniform();
    const auto backoff = std::chrono::microseconds(
        static_cast<long long>(1'000 + u * 9'000));
    wait_cohort(Clock::now() + backoff);
    if (obs::enabled()) {
      obs::MetricsRegistry::global().counter("fork_eagain_retries").add();
    }
    if (!pending(i)) {  // shed while it waited: it is not forked at all
      slot.result = Pipe{};
      return false;
    }
  }
  if (pid == 0) {
    // Child: a COW copy of everything the parent had. Until its frame is
    // out it writes only what the frame needs — its index and the write end
    // of its own result pipe — and closes only what its frame's EOF and
    // EPIPE rest on: its copy of that pipe's read end, so a write to a
    // parent that has gone meets EPIPE, and a heap group's release write
    // end, so a second token holder that no release byte comes for reads
    // EOF once its parent lets go of the pipe. Every page it does not write
    // stays shared with the parent; the siblings' descriptors it inherited
    // close when it exits.
    my_index_ = arm;
    out_ = slot.result.write_end.get();
    ::close(slot.result.read_end.get());
    if (release_.write_end.valid()) ::close(release_.write_end.get());
    BoardBlock::forget_grandparent_board();
    if (opts_.governor != nullptr) opts_.governor->apply_child_rlimits();
    if (obs::enabled()) obs::set_current_race(ids_.race_id);
    obs::prof_arm_child(ids_.race_id, arm);
    obs::emit(obs::EventKind::kGuardStart, ids_.race_id,
              static_cast<std::int16_t>(arm));
    child_run_t0_ = obs::phase_begin(obs::Phase::kArmRun, ids_.race_id,
                                     static_cast<std::int16_t>(arm));
    if (opts_.heap != nullptr) {
      // An arm that cannot track its pages aborts here: the exception must
      // not unwind into the caller's code in this process.
      try {
        opts_.heap->begin_tracking();
      } catch (...) {
        child_abort();
      }
    }
    return true;
  }
  slot.spawned = Clock::now();
  slot.result.write_end.reset();
  slot.pidfd = Fd(open_pidfd(pid));
  if (!slot.pidfd.valid()) {
    // A child the cohort wait cannot watch is a failed fork.
    const int err = errno;
    ::kill(pid, SIGKILL);
    wait4_eintr(pid, nullptr, 0);
    slot.result = Pipe{};
    end_cohort();
    throw SystemError("pidfd_open", err);
  }
  if (obs::enabled()) {
    const std::uint64_t fork_ns = obs::now_ns() - fork_t0;
    obs::emit(obs::EventKind::kFork, ids_.race_id,
              static_cast<std::int16_t>(arm), static_cast<std::uint64_t>(pid),
              fork_ns, fork_call_ns);
    obs::MetricsRegistry::global().histogram("fork_latency_ns").record(fork_ns);
  }
  status_[i].pid = pid;
  status_[i].spawn_ns = obs::now_ns();
  --pending_;
  ++running_;
  return false;
}

void AltGroup::cancel(std::size_t i, ChildFate fate) {
  status_[i].fate = fate;
  --pending_;
  release_spare_tokens();
}

void AltGroup::end_cohort() {
  // A frame already out says how its child reads; an abort frame's child is
  // on its way out and is spared the kill.
  poll_frames();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].ready && slots_[i].frame_len == 0) peek_frame(i);
  }
  kill_survivors(ChildFate::kEliminated);
  // A heap winner exits only on its release byte, which no teardown may
  // forget to send: EOF never comes while a child forked elsewhere in this
  // process holds a copy of the write end.
  release_winner(kReleaseExit);
  // Every token goes back now: a killed child runs no more code, and a
  // released winner only exits. None waits for its child's reap.
  if (opts_.governor != nullptr && tokens_released_ < tokens_held_) {
    opts_.governor->release(tokens_held_ - tokens_released_);
    tokens_released_ = tokens_held_;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!reaped(i)) reap(i, WNOHANG);
  }
  hand_off();
}

void AltGroup::hand_off() {
  const std::uint64_t now = obs::now_ns();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (reaped(i)) continue;  // pending arms ended unforked in kill_survivors
    Slot& slot = slots_[i];
    ChildStatus& st = status_[i];
    read_census(i);
    // Every child still here has a frame out or a kill on its way.
    const bool committed = slot.delivered || slot.ready || took_token(i);
    st.fate = committed      ? ChildFate::kCommitted
              : slot.aborted ? ChildFate::kAborted
                             : slot.kill_fate;
    st.reap_ns = now;
    slot.deferred = true;
    --running_;
    DeferredChild d;
    d.st = st;
    d.note = note(i);
    d.pidfd = std::move(slot.pidfd);
    if (st.fate != ChildFate::kCommitted && st.fate != ChildFate::kAborted) {
      d.result = std::move(slot.result.read_end);  // a killed child's
    }
    d.block_won = verdict_kind_ == WaitVerdict::kWinner;
    handoff_.push_back(std::move(d));
  }
  if (handoff_.empty()) return;
  // The bill: what the verdict reaped now, each deferred child as it is
  // reaped, emitted with the last.
  bill_->ids = ids_;
  bill_->rep = speculation_report();
  bill_->outstanding = static_cast<int>(handoff_.size());
  for (DeferredChild& d : handoff_) d.bill = bill_;
  accounted_ = true;
  defer_reap(handoff_);
  handoff_.clear();
}

void AltGroup::child_commit(std::span<const std::uint8_t> result) {
  child_sync(result, true);
}

void AltGroup::child_deliver(std::span<const std::uint8_t> result) {
  child_sync(result, false);
}

void AltGroup::child_abort() { child_sync(std::nullopt, false); }

void AltGroup::child_sync(std::optional<std::span<const std::uint8_t>> result,
                          bool take_token) {
  ALTX_REQUIRE(my_index_ != 0, "AltGroup: child sync called in the parent");
  const auto me = static_cast<std::int16_t>(my_index_);
  // The guard's outcome is recorded before the fault sync point, so the
  // trace still explains a child that the injector kills on its way in.
  obs::emit(obs::EventKind::kGuardResult, ids_.race_id, me,
            result.has_value());
  obs::phase_end(obs::Phase::kArmRun, ids_.race_id, me, child_run_t0_);
  child_run_t0_ = 0;
  publish_census();  // before the sync point: survives an injected SIGKILL
  bool drop = false;
  if (opts_.fault != nullptr) {
    // May crash / hang / stall right here — the instant before
    // synchronization, the worst place a real fault can strike. On the
    // abort path kDropCommit degenerates to the abort.
    drop = opts_.fault->at_sync_point(fault_attempt_, my_index_) ==
           FaultKind::kDropCommit;
  }
  if (!result.has_value()) {
    obs::emit(obs::EventKind::kGuardFail, ids_.race_id, me);
    board_.publish_standing(my_index_, Standing::kPassed);
    // An empty frame tells the parent now: a FAIL verdict need not wait for
    // this process to exit.
    send_frame(out_, {}, kExitAbort);
    exit_arm(kExitAbort);
  }
  if (take_token) {
    // Try to take the token. First taker commits; everyone else is too
    // late.
    obs::emit(obs::EventKind::kCommitAttempt, ids_.race_id, me);
    if (!board_.take_token()) {
      obs::emit(obs::EventKind::kTooLate, ids_.race_id, me);
      board_.publish_standing(my_index_, Standing::kPassed);
      exit_arm(kExitTooLate);
    }
    board_.publish_standing(my_index_, Standing::kTaken);
    obs::emit(obs::EventKind::kCommitWon, ids_.race_id, me,
              static_cast<std::uint64_t>(result->size()));
    if (second_token_) await_second_holder();
  }
  if (drop) {
    // Injected: the result is lost between synchronizing and publishing.
    // With the token gone nobody else can win — the block must fail and
    // the supervisor must notice. The unexpected exit status makes the
    // parent classify this child as crashed.
    exit_arm(kExitLost);
  }

  // The frame is the result as a blob, then a heap flag; a heap group's
  // frame carries the dirty pages as runs, not their bytes: the parent reads
  // those out of this process (absorb_winner). It is gathered from where
  // its parts lie, so an arm allocates nothing on its way to the frame.
  const std::uint64_t size = result->size();
  const std::uint8_t has_heap = opts_.heap != nullptr ? 1 : 0;
  auto bytes_of = [](const auto& v) {
    return std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(&v), sizeof v);
  };
  Bytes runs_blob;
  if (opts_.heap != nullptr) {
    obs::ScopedPhase diff(obs::Phase::kPageDiff, ids_.race_id, me);
    const std::vector<PageRun> runs = opts_.heap->dirty_runs();
    ByteWriter w(runs_blob);
    w.u32(static_cast<std::uint32_t>(runs.size()));
    for (const PageRun& run : runs) {
      w.u32(run.first);
      w.u32(run.count);
    }
  }
  {
    obs::ScopedPhase pipe(obs::Phase::kResultPipe, ids_.race_id, me);
    send_frame(out_, {bytes_of(size), *result, bytes_of(has_heap), runs_blob},
               kExitLost);
  }
  if (opts_.heap != nullptr) await_release();
  exit_arm(0);
}

void AltGroup::await_release() {
  // The pages stay readable only while this process lives, so it waits for
  // the parent's byte — or until the parent is gone.
  pollfd pfd{release_.read_end.get(), POLLIN, 0};
  while (::poll(&pfd, 1, kOrphanCheckMs) <= 0) {
    if (::getppid() != parent_) return;
  }
  std::uint8_t ask = kReleaseExit;
  ssize_t got = 0;
  while ((got = ::read(pfd.fd, &ask, 1)) < 0 && errno == EINTR) {
  }
  if (got != 1 || ask != kReleaseSendPatch) return;
  const auto me = static_cast<std::int16_t>(my_index_);
  Bytes patch;
  {
    obs::ScopedPhase diff(obs::Phase::kPageDiff, ids_.race_id, me);
    patch = opts_.heap->serialize_dirty();
  }
  obs::ScopedPhase pipe(obs::Phase::kResultPipe, ids_.race_id, me);
  send_frame(out_, {patch}, kExitLost);
}

std::optional<AltWinner> AltGroup::alt_wait(std::chrono::milliseconds timeout) {
  settle(timeout, /*collect_all=*/false);
  return verdict_;
}

std::optional<std::vector<Bytes>> AltGroup::alt_wait_all(
    std::chrono::milliseconds timeout) {
  ALTX_REQUIRE(opts_.heap == nullptr,
               "alt_wait_all: a collect-all group cannot absorb an AltHeap");
  settle(timeout, /*collect_all=*/true);
  if (verdict_kind_ != WaitVerdict::kWinner) return std::nullopt;
  return results_;
}

void AltGroup::settle(std::chrono::milliseconds timeout, bool collect_all) {
  ALTX_REQUIRE(my_index_ == 0, "alt_wait: only the parent waits");
  ALTX_REQUIRE(spawned_, "alt_wait before alt_spawn");
  if (decided_) return;

  const auto deadline = Clock::now() + timeout;
  const std::size_t n = slots_.size();
  if (collect_all) results_.resize(n);

  // The parent's view of the arms running: from here until the winner's
  // frame is readable (collect-all: until the verdict). The later phases —
  // result_pipe, absorb, eliminate, decide — each close before the next
  // opens, so the parent-side spans tile the race wall time.
  obs::ScopedPhase arm_phase(obs::Phase::kArmRun, ids_.race_id);
  bool called_off = false;  // the deadline passed and the survivors were killed
  while (true) {
    std::size_t delivered = 0;
    std::size_t lost = 0;  // reaped without leaving a frame
    std::size_t first_ready = n;
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[i];
      // Abort frames are read as they come, up to a race's first commit.
      if (slot.ready && slot.frame_len == 0 &&
          (collect_all || first_ready == n)) {
        peek_frame(i);
      }
      if (slot.ready && collect_all) {
        results_[i] = ByteReader(take_frame(i)).blob();
      }
      if (slot.ready && first_ready == n) first_ready = i;
      if (slot.delivered) ++delivered;
      if (slot.aborted || (reaped(i) && !slot.delivered && !slot.ready)) {
        ++lost;
      }
    }
    if (!collect_all && first_ready < n) {
      arm_phase.end();
      Bytes frame;
      {
        obs::ScopedPhase pipe(obs::Phase::kResultPipe, ids_.race_id);
        frame = take_frame(first_ready);
      }
      ByteReader r(frame);
      AltWinner win;
      win.index = static_cast<int>(first_ready) + 1;
      win.result = r.blob();
      if (r.u8() == 1) {
        obs::ScopedPhase absorb(obs::Phase::kAbsorb, ids_.race_id);
        const std::optional<std::size_t> pages =
            absorb_winner(first_ready, r, deadline);
        if (!pages.has_value()) continue;  // void: the race goes on
        win.pages_absorbed = *pages;
      }
      verdict_ = std::move(win);
      verdict_kind_ = WaitVerdict::kWinner;
      break;
    }
    if (collect_all && delivered == n) {
      verdict_kind_ = WaitVerdict::kWinner;
      break;
    }
    if (called_off) {
      verdict_kind_ = WaitVerdict::kTimeout;
      break;
    }
    // A race fails once every child is lost — aborted, or gone without a
    // frame; a collect-all at the first.
    if (collect_all ? lost > 0 : lost == n) {
      verdict_kind_ = WaitVerdict::kAllFailed;
      break;
    }
    if (Clock::now() >= deadline) {
      // A heap winner whose frame is already out is taken, not killed: the
      // kill would take the pages its frame names.
      if (opts_.heap != nullptr && poll_frames()) continue;
      // TIMEOUT: presume no alternative will succeed (section 3.2). A frame
      // that raced in before the kill is still honoured on the next pass.
      arm_phase.end();
      {
        obs::ScopedPhase elim(obs::Phase::kEliminate, ids_.race_id);
        kill_survivors(ChildFate::kHung);
      }
      wait_cohort(Clock::now());
      called_off = true;
      continue;
    }
    // Undecided: the arms now due take the slots freed so far.
    launch_due();
    wait_cohort(std::min(deadline, next_launch()));
  }

  decided_ = true;
  arm_phase.end();  // idempotent: already closed on the result/timeout paths
  if (!all_reaped()) {
    obs::ScopedPhase elim(obs::Phase::kEliminate, ids_.race_id);
    end_cohort();
  }
  const std::uint64_t decide_t0 =
      obs::phase_begin(obs::Phase::kDecide, ids_.race_id, 0);
  finalize_accounting();
  obs::phase_end(obs::Phase::kDecide, ids_.race_id, 0, decide_t0);
  if (obs::enabled()) {
    obs::emit(obs::EventKind::kRaceDecided, ids_.race_id, 0,
              static_cast<std::uint64_t>(verdict_kind_),
              verdict_.has_value() ? static_cast<std::uint64_t>(verdict_->index)
                                   : 0,
              verdict_.has_value() ? verdict_->pages_absorbed : 0);
    auto& metrics = obs::MetricsRegistry::global();
    if (verdict_kind_ == WaitVerdict::kWinner) {
      metrics.histogram("commit_latency_ns").record(obs::now_ns() - start_ns_);
      if (verdict_.has_value()) {
        metrics.counter("pages_absorbed").add(verdict_->pages_absorbed);
      }
    } else if (verdict_kind_ == WaitVerdict::kTimeout) {
      metrics.counter("race_timeouts").add();
    } else {
      metrics.counter("race_all_failed").add();
    }
  }
}

void AltGroup::peek_frame(std::size_t i) {
  Slot& slot = slots_[i];
  if (!read_exact(slot.result.read_end.get(), &slot.frame_len,
                  sizeof slot.frame_len)) {
    slot.frame_len = 0;  // EOF after all: no frame
    slot.ready = false;
    slot.result.read_end.reset();
    return;
  }
  if (slot.frame_len > 0) return;
  slot.ready = false;
  slot.aborted = true;
  slot.result.read_end.reset();
}

Bytes AltGroup::take_frame(std::size_t i) {
  Slot& slot = slots_[i];
  ALTX_REQUIRE(slot.frame_len > 0, "AltGroup: frame taken before its length");
  Bytes frame(slot.frame_len);
  if (!read_exact(slot.result.read_end.get(), frame.data(), frame.size())) {
    throw SystemError("AltGroup: truncated result frame", EIO);
  }
  // One frame per child, except that a heap winner may be asked for a patch
  // frame after it (absorb_winner).
  if (opts_.heap == nullptr) slot.result.read_end.reset();
  slot.ready = false;
  slot.delivered = true;
  return frame;
}

std::optional<std::size_t> AltGroup::absorb_winner(
    std::size_t i, ByteReader& r, Clock::time_point deadline) {
  const Fd result = std::move(slots_[i].result.read_end);
  const std::uint32_t n = r.u32();
  ALTX_REQUIRE(n <= opts_.heap->pages(), "AltGroup: bad page-run count");
  std::vector<PageRun> runs(n);
  for (PageRun& run : runs) {
    run.first = r.u32();
    run.count = r.u32();
  }
  // The child is unreaped (record_exit voids the frame of a reaped one), so
  // its pid still names it, if only as a zombie.
  std::optional<std::size_t> pulled;
  try {
    pulled = opts_.heap->absorb_from(status_[i].pid, runs);
  } catch (const SystemError& e) {
    if (e.code() != ESRCH) throw;
    // Killed, by us or not, between its frame and the pull: the pages died
    // with it, and it reads as whatever that death means.
    slots_[i].delivered = false;
    return std::nullopt;
  }
  if (pulled.has_value()) {
    release_winner(kReleaseExit);
    return pulled;
  }
  // No pull: the winner sends its pages as a patch frame instead.
  release_winner(kReleaseSendPatch);
  const std::optional<Bytes> patch = await_patch(i, result, deadline);
  if (!patch.has_value()) {
    // No whole frame: the winner died mid-frame, or is still at it past the
    // deadline, where it is killed as hung.
    Slot& slot = slots_[i];
    slot.delivered = false;
    if (slot.kill_fate == ChildFate::kRunning && Clock::now() >= deadline) {
      kill_child(i, ChildFate::kHung);
    }
    return std::nullopt;
  }
  return opts_.heap->apply_patch(*patch);
}

std::optional<Bytes> AltGroup::await_patch(std::size_t i, const Fd& result,
                                           Clock::time_point deadline) {
  // Non-blocking reads between polls of the pipe and the winner's pidfd: a
  // winner that dies mid-frame ends the wait even when a child forked by
  // another thread still holds the pipe's write end, so EOF never comes.
  const int fd = result.get();
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
  const int pidfd = slots_[i].pidfd.get();
  std::uint64_t len = 0;
  Bytes patch;
  bool header = true;
  std::size_t got = 0;
  bool exited = false;
  while (true) {
    auto* dst = header ? reinterpret_cast<std::uint8_t*>(&len) : patch.data();
    const std::size_t want = header ? sizeof len : patch.size();
    if (got == want) {
      if (!header) return patch;
      header = false;
      got = 0;
      patch.resize(len);
      continue;
    }
    const ssize_t r = ::read(fd, dst + got, want - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return std::nullopt;  // EOF mid-frame
    if (errno == EINTR) continue;
    if (errno != EAGAIN) throw_errno("read");
    // The pipe is drained; a winner that has exited wrote all it ever will.
    if (exited || Clock::now() >= deadline) return std::nullopt;
    pollfd fds[2] = {{fd, POLLIN, 0}, {pidfd, POLLIN, 0}};
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int timeout_ms = static_cast<int>(std::clamp<long long>(
        wait.count(), 0, std::numeric_limits<int>::max()));
    if (::poll(fds, 2, timeout_ms) < 0 && errno != EINTR) throw_errno("poll");
    exited = fds[1].revents != 0;
  }
}

void AltGroup::release_winner(std::uint8_t ask) {
  if (!release_.write_end.valid()) return;
  // The parent still holds the read end, so this write never meets a
  // closed pipe, whether or not a winner lives to read it.
  write_all(release_.write_end.get(), &ask, 1);
  release_ = Pipe{};
}

bool AltGroup::poll_frames() {
  detail::ArenaVector<pollfd>& fds = pollset_;
  fds.clear();
  for (const Slot& slot : slots_) {
    if (slot.result.read_end.valid() && !slot.ready) {
      fds.push_back({slot.result.read_end.get(), POLLIN, 0});
    }
  }
  if (fds.empty()) return false;
  int r = 0;
  while ((r = ::poll(fds.data(), fds.size(), 0)) < 0 && errno == EINTR) {
  }
  if (r <= 0) return false;
  bool found = false;
  std::size_t k = 0;
  for (Slot& slot : slots_) {
    if (!slot.result.read_end.valid() || slot.ready) continue;
    slot.ready = (fds[k++].revents & POLLIN) != 0;
    found = found || slot.ready;
  }
  return found;
}

void AltGroup::wait_cohort(Clock::time_point deadline) {
  deadline = std::min(deadline, enforce_deadlines());
  // One pollfd per open result pipe not yet known to hold a frame, and one
  // per unreaped child's pidfd; `owner` maps each back to (child, is_pidfd).
  detail::ArenaVector<pollfd>& fds = pollset_;
  detail::ArenaVector<std::pair<std::size_t, bool>>& owner = poll_owner_;
  fds.clear();
  owner.clear();
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    if (status_[i].pid < 0) continue;  // never forked
    if (slot.result.read_end.valid() && !slot.ready) {
      fds.push_back({slot.result.read_end.get(), POLLIN, 0});
      owner.emplace_back(i, false);
    }
    if (reaped(i)) continue;
    fds.push_back({slot.pidfd.get(), POLLIN, 0});
    owner.emplace_back(i, true);
  }
  int r = ::poll(fds.data(), fds.size(), 0);
  if (r == 0) {
    // Nothing is ready yet: earlier blocks' children that have exited since
    // are reaped now, while this block's arms run, and not ahead of a frame
    // that is already here.
    sweep_eliminated();
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int timeout_ms = static_cast<int>(std::clamp<long long>(
        wait.count(), 0, std::numeric_limits<int>::max()));
    r = ::poll(fds.data(), fds.size(), timeout_ms);
  }
  if (r < 0 && errno != EINTR) throw_errno("poll");
  for (std::size_t k = 0; r > 0 && k < fds.size(); ++k) {
    if (fds[k].revents == 0) continue;
    const auto [i, is_pidfd] = owner[k];
    Slot& slot = slots_[i];
    if (is_pidfd) {
      reap(i, WNOHANG);
    } else if ((fds[k].revents & POLLIN) != 0) {
      slot.ready = true;
    } else {
      slot.result.read_end.reset();  // EOF: the child left without a frame
    }
  }
}

AltGroup::Clock::time_point AltGroup::enforce_deadlines() {
  const Clock::time_point now = Clock::now();
  Clock::time_point next = kNever;
  auto due = [&](Clock::time_point at) {
    if (now >= at) return true;
    next = std::min(next, at);
    return false;
  };
  SpeculationGovernor* const gov = opts_.governor;
  if (gov == nullptr) return next;
  int live_arms = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (live(i)) ++live_arms;
  }
  if (live_arms == 0) return next;

  const GovernorConfig& cfg = gov->config();
  bool frames_polled = false;
  auto kill_arm = [&](std::size_t i, GovKillReason reason) {
    // A heap arm whose frame is already out is the winner, not a kill: the
    // next cohort wait returns at once and the race takes it.
    if (!frames_polled && opts_.heap != nullptr) {
      frames_polled = true;
      if (poll_frames()) next = now;
      if (!live(i)) return;
    }
    governed_kill(i, reason);
    --live_arms;
  };
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!live(i) || pending(i)) continue;  // budgets count from the fork
    const Slot& slot = slots_[i];
    if (cfg.arm_wall_budget.count() > 0 &&
        due(slot.spawned + cfg.arm_wall_budget)) {
      kill_arm(i, GovKillReason::kWall);
      continue;
    }
    // Predicted early kill: this arm has overrun its own historical kill
    // quantile. An arm with no history carries 0 and is never considered;
    // the group's last live arm is always spared (liveness — a
    // mispredicting model must degrade to sequential, never to wedged), and
    // a deadline passed while it was the last stays unarmed.
    const std::uint64_t pred =
        i < opts_.launch.size() ? opts_.launch[i].kill_ns : 0;
    if (pred > 0 && live_arms >= 2 &&
        due(slot.spawned + std::chrono::nanoseconds(pred))) {
      kill_arm(i, GovKillReason::kPredicted);
      continue;
    }
    if (cfg.arm_cpu_budget.count() > 0) {
      const auto cpu = proc_cpu_ns(status_[i].pid);
      if (cpu.has_value() &&
          std::chrono::nanoseconds(*cpu) > cfg.arm_cpu_budget) {
        kill_arm(i, GovKillReason::kCpu);
        continue;
      }
      next = std::min(next, now + cpu_check_every(cfg.arm_cpu_budget));
    }
  }
  // Pressure shedding, one arm per pressure_interval: the group's lowest-PI
  // live arm (the highest index — alternatives are PI-ordered), never its
  // last. Shedding a loser is indistinguishable from elimination, while
  // starving the whole block would trade an outcome for memory. A pending
  // arm is shed by never forking it.
  if (live_arms >= 2 && due(next_shed_check_)) {
    next_shed_check_ =
        now + std::max(cfg.pressure_interval, std::chrono::milliseconds(1));
    next = std::min(next, next_shed_check_);
    if (gov->shedding()) {
      for (std::size_t i = slots_.size(); i-- > 0;) {
        if (!live(i)) continue;
        if (pending(i)) {
          cancel(i, ChildFate::kOverBudget);
          gov->note_kill(GovKillReason::kShed);
        } else {
          kill_arm(i, GovKillReason::kShed);
        }
        break;
      }
    }
  }
  return next;
}

void AltGroup::kill_child(std::size_t i, ChildFate fate) {
  ALTX_REQUIRE(status_[i].pid > 0, "AltGroup: kill of an arm never forked");
  slots_[i].kill_fate = fate;
  kill_pidfd(slots_[i].pidfd);
}

void AltGroup::governed_kill(std::size_t i, GovKillReason reason) {
  kill_child(i, reason == GovKillReason::kPredicted
                    ? ChildFate::kPredictedLoser
                    : ChildFate::kOverBudget);
  slots_[i].gov_reason = reason;
  opts_.governor->note_kill(reason);
  emit_governed_kill(i);
}

void AltGroup::emit_governed_kill(std::size_t i) const {
  // Predicted kills get their own event kind (the trace ties them back to
  // the arm's history quantile); every other reason keeps kGovKill.
  const bool predicted = slots_[i].gov_reason == GovKillReason::kPredicted;
  obs::emit(predicted ? obs::EventKind::kPredKill : obs::EventKind::kGovKill,
            ids_.race_id, static_cast<std::int16_t>(i + 1),
            static_cast<std::uint64_t>(status_[i].pid),
            predicted ? opts_.launch[i].kill_ns
                      : static_cast<std::uint64_t>(slots_[i].gov_reason));
}

void AltGroup::reap(std::size_t i, int flags) {
  if (status_[i].pid < 0) return;  // never forked: nothing to wait for
  int status = 0;
  struct rusage ru {};
  const pid_t r = wait4_eintr(status_[i].pid, &status, flags, &ru);
  if (r == status_[i].pid) {
    on_exit(i, status, decode_rusage(ru));
  } else if (r < 0 && errno == ECHILD) {
    // Gone, and reaped by someone else (SIGCHLD ignored, a waitpid(-1)):
    // no status, no bill.
    on_exit(i, std::nullopt, ChildUsage{});
  }
}

int AltGroup::count_fate(ChildFate fate) const {
  int n = 0;
  for (const auto& st : status_) {
    if (st.fate == fate) ++n;
  }
  return n;
}

void AltGroup::kill_survivors(ChildFate fate) {
  // Children that delivered or aborted are on their way out through _exit
  // and are only reaped; children already killed keep the fate of that
  // first kill.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (pending(i)) {
      cancel(i, fate);  // ends unforked: no process to signal
    } else if (!reaped(i) && !slot.delivered && !slot.aborted &&
               slot.kill_fate == ChildFate::kRunning) {
      kill_child(i, fate);
    }
  }
}

bool AltGroup::all_reaped() const {
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (!reaped(i)) return false;
  }
  return true;
}

void AltGroup::release_spare_tokens() {
  // A block winding down frees budget for queued blocks before its own
  // teardown completes; a slot that a pending arm will take keeps its token.
  const int spare = tokens_held_ - tokens_released_ -
                    std::min(cap_, running_ + pending_);
  if (opts_.governor == nullptr || spare <= 0) return;
  opts_.governor->release(spare);
  tokens_released_ += spare;
}

ReapNote AltGroup::note(std::size_t i) const {
  const Slot& slot = slots_[i];
  ReapNote n;
  n.arm = static_cast<int>(i) + 1;
  n.ids = ids_;
  n.kill_fate = slot.kill_fate;
  n.frame_out = slot.delivered || slot.ready || took_token(i);
  n.aborted = slot.aborted;
  n.site_id = opts_.site_id;
  const ArmLaunch* launch =
      i < opts_.launch.size() ? &opts_.launch[i] : nullptr;
  n.history_arm = launch != nullptr && launch->history_arm != 0
                      ? launch->history_arm
                      : static_cast<std::uint32_t>(n.arm);
  n.censored = launch != nullptr && launch->censored;
  return n;
}

void AltGroup::on_exit(std::size_t i, std::optional<int> status,
                       const ChildUsage& usage) {
  Slot& slot = slots_[i];
  slot.pidfd.reset();
  // The child is gone, so whatever it wrote is in the pipe in full: either
  // a frame waits there or it never will.
  if (slot.result.read_end.valid() && !slot.ready) {
    slot.ready = has_data(slot.result.read_end.get());
    if (!slot.ready) slot.result.read_end.reset();
  }
  if (slot.ready && slot.frame_len == 0) peek_frame(i);  // an abort's?
  // A heap frame that a verdict has yet to take is void: the pages it names
  // died with the child, which lost. After the verdict a frame left over is
  // a second commit (the at-most-once breach the checker hunts) and counts.
  if (slot.ready && opts_.heap != nullptr && !decided_) {
    slot.ready = false;
    slot.result.read_end.reset();
  }
  --running_;  // its slot is free
  release_spare_tokens();
  read_census(i);
  record_exit(status_[i], note(i), status, usage);
}

void AltGroup::read_census(std::size_t i) {
  // The child's dirty-page census, if it published one in this block before
  // dying; a word it never wrote counts as "no census" (zeros).
  const ArmWord w = board_.read(static_cast<int>(i) + 1);
  if (!w.census) return;
  status_[i].dirty_pages = w.dirty_pages;
  status_[i].dirty_bytes =
      opts_.heap != nullptr
          ? w.dirty_pages * static_cast<std::uint64_t>(opts_.heap->page_size())
          : 0;
}

void AltGroup::publish_census() {
  std::uint64_t pages = 0;
  if (opts_.heap != nullptr) {
    pages = static_cast<std::uint64_t>(opts_.heap->collect_dirty());
  }
  board_.publish_pages(my_index_, pages);
  obs::emit(obs::EventKind::kChildPages, ids_.race_id,
            static_cast<std::int16_t>(my_index_), pages,
            opts_.heap != nullptr
                ? pages * static_cast<std::uint64_t>(opts_.heap->page_size())
                : 0);
}

bool AltGroup::took_token(std::size_t i) const {
  // One token exists outside the sabotage, and a won block's winner holds
  // it: any other holder is a second commit, with or without a frame out.
  return verdict_kind_ == WaitVerdict::kWinner &&
         board_.read(static_cast<int>(i) + 1).standing == Standing::kTaken;
}

void AltGroup::await_second_holder() const {
  const Clock::time_point deadline = Clock::now() + kSecondHolderWait;
  const timespec nap{0, 50'000};
  while (Clock::now() < deadline) {
    int holders = 0;
    int unseen = 0;
    for (int arm = 1; arm <= board_.arms(); ++arm) {
      const Standing st = board_.read(arm).standing;
      if (st == Standing::kTaken) ++holders;
      if (st == Standing::kUnseen) ++unseen;
    }
    if (holders >= 2 || unseen == 0) return;
    ::nanosleep(&nap, nullptr);
  }
}

SpeculationReport AltGroup::speculation_report() const {
  SpeculationReport rep;
  for (std::size_t i = 0; i < status_.size(); ++i) {
    // Unreaped, unforked, or billed by the reap set later.
    if (!reaped(i) || status_[i].pid < 0 || slots_[i].deferred) continue;
    rep.add(status_[i]);
  }
  return rep;
}

void AltGroup::finalize_accounting() {
  if (accounted_ || !spawned_ || my_index_ != 0 || !all_reaped()) return;
  accounted_ = true;
  BlockBill bill;
  bill.ids = ids_;
  bill.rep = speculation_report();
  bill.emit();
}

}  // namespace altx::posix
