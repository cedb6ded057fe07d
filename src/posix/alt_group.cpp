#include "posix/alt_group.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "posix/governor.hpp"

namespace altx::posix {

namespace {

constexpr int kExitAbort = 42;    // guard failed, no synchronization
constexpr int kExitTooLate = 43;  // lost the race for the commit token
constexpr int kExitLost = 77;     // injected: result lost after the sync point

// In-place fork() EAGAIN retries: transient pid exhaustion (a sibling
// cohort mid-teardown, a fork storm elsewhere in the tree) usually clears
// in milliseconds, and abandoning the whole cohort to the supervisor's
// much slower backoff for it would be out of proportion.
constexpr int kForkRetries = 3;

// Poll bound while some live child has no pidfd: its exit can only be
// found by wait4(WNOHANG), so the cohort wait must wake up to look.
constexpr std::chrono::milliseconds kBlindPoll{10};

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

/// SIGTERM -> SIGKILL grace for survivor elimination, from
/// ALTX_KILL_GRACE_MS, read once per process (0 = straight SIGKILL).
std::chrono::milliseconds kill_grace() {
  static const std::chrono::milliseconds grace = [] {
    const char* s = std::getenv("ALTX_KILL_GRACE_MS");
    const long long ms = s != nullptr ? std::strtoll(s, nullptr, 0) : 0;
    return std::chrono::milliseconds(std::max(0LL, ms));
  }();
  return grace;
}

/// Whether a frame's bytes are waiting in `fd` (not merely EOF).
bool has_data(int fd) {
  pollfd pfd{fd, POLLIN, 0};
  int r = 0;
  while ((r = ::poll(&pfd, 1, 0)) < 0 && errno == EINTR) {
  }
  return r > 0 && (pfd.revents & POLLIN) != 0;
}

}  // namespace

const char* to_string(ChildFate fate) {
  switch (fate) {
    case ChildFate::kRunning: return "running";
    case ChildFate::kCommitted: return "committed";
    case ChildFate::kTooLate: return "too_late";
    case ChildFate::kAborted: return "aborted";
    case ChildFate::kCrashed: return "crashed";
    case ChildFate::kHung: return "hung";
    case ChildFate::kEliminated: return "eliminated";
    case ChildFate::kOverBudget: return "over_budget";
    case ChildFate::kPredictedLoser: return "predicted_loser";
  }
  return "?";
}

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
    kill_survivors(ChildFate::kEliminated);
    reap_all();
    release_remaining_tokens();
    finalize_accounting();
  } catch (...) {
    // Destructors must not throw; losing a reap here only leaks a zombie
    // until process exit.
  }
  if (census_ != nullptr) {
    ::munmap(census_, census_slots_ * sizeof(CensusSlot));
    census_ = nullptr;
  }
}

int AltGroup::alt_spawn(int n) {
  ALTX_REQUIRE(!spawned_, "AltGroup: alt_spawn called twice");
  ALTX_REQUIRE(n >= 1, "AltGroup: need at least one alternative");
  spawned_ = true;
  if (opts_.fault != nullptr) fault_attempt_ = opts_.fault->begin_attempt();
  // The race id exists before admission so the queueing time is part of
  // this race's timeline — admission wait is wall time the caller pays.
  if (obs::enabled()) {
    race_id_ = obs::next_race_id();
    start_ns_ = obs::now_ns();
    obs::emit(obs::EventKind::kRaceBegin, race_id_, 0,
              static_cast<std::uint64_t>(n));
  }
  if (opts_.governor != nullptr) {
    // Admission before any fork: either the whole cohort runs or none of it
    // does. kDenied (n >= 2 after the bounded wait) is the degrade signal —
    // the supervisor catches AdmissionTimeout and serializes the block.
    obs::ScopedPhase admission(obs::Phase::kAdmissionWait, race_id_);
    if (opts_.governor->admit(n) == Admission::kDenied) {
      spawned_ = false;  // nothing happened; the group may be retried
      throw AdmissionTimeout(n);
    }
    tokens_held_ = n;
  }
  obs::ScopedPhase fork_phase(obs::Phase::kFork, race_id_);
  obs::prof_prewarm();  // stack bounds for the children's samplers
  absorb_first_clone();

  token_ = Pipe::create(/*nonblocking_read=*/true);
  // Deposit the single commit token: the 0-1 semaphore of section 3.2.1.
  // ALTX_TEST_BREAK_AT_MOST_ONCE is a test-only sabotage knob for the
  // equivalence checker (src/check/): it deposits a second token, so two
  // children can both "win" — the at-most-once-commit violation altx-check
  // must catch, shrink, and replay. Never set it outside tests.
  const std::uint8_t token = 1;
  write_all(token_.write_end.get(), &token, 1);
  if (std::getenv("ALTX_TEST_BREAK_AT_MOST_ONCE") != nullptr) {
    write_all(token_.write_end.get(), &token, 1);
  }
  // Every result pipe exists before the first fork; each child keeps only
  // its own write end, and the parent drops that end once the child is
  // forked, so a child that dies without a frame leaves EOF behind.
  slots_.resize(static_cast<std::size_t>(n));
  for (Slot& slot : slots_) slot.result = Pipe::create();

  // The census arena: one MAP_SHARED slot per child, created before any
  // fork so every child inherits the same mapping. A child deposits its
  // dirty-page count here just before its sync point; the numbers survive a
  // SIGKILL that the pipe-based result path would lose. On mmap failure the
  // arena is simply absent and accounting degrades to rusage-only.
  census_slots_ = static_cast<std::size_t>(n);
  void* arena = ::mmap(nullptr, census_slots_ * sizeof(CensusSlot),
                       PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                       -1, 0);
  if (arena == MAP_FAILED) {
    census_ = nullptr;
    census_slots_ = 0;
  } else {
    census_ = static_cast<CensusSlot*>(arena);  // MAP_ANONYMOUS: zeroed
  }

  // status_ grows in lockstep with the forks so that a mid-loop failure
  // can kill and reap exactly the children that exist.
  status_.reserve(static_cast<std::size_t>(n));

  auto abandon_cohort = [this] {
    kill_survivors(ChildFate::kEliminated);
    reap_all();
    release_remaining_tokens();
  };

  for (int i = 1; i <= n; ++i) {
    const std::uint64_t fork_t0 = obs::enabled() ? obs::now_ns() : 0;
    pid_t pid = -1;
    for (int try_n = 0;; ++try_n) {
      const bool injected =
          opts_.fault != nullptr &&
          opts_.fault->fork_fails(fault_attempt_, i, try_n);
      if (!injected) {
        pid = ::fork();
        if (pid >= 0) break;
      }
      const int err = injected ? EAGAIN : errno;
      // EAGAIN is pid/memory exhaustion and is often transient (a sibling
      // cohort mid-teardown); retry in place, briefly and jittered, before
      // abandoning the cohort to the supervisor's coarser backoff. The
      // backoff is a cohort wait, so children of this group that exit
      // meanwhile are reaped and give their pids back.
      if (err != EAGAIN || try_n >= kForkRetries) {
        abandon_cohort();
        throw SystemError(injected ? "fork (injected fault)" : "fork", err);
      }
      const double u =
          Rng((fault_attempt_ << 32) ^
              (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL) ^
              static_cast<std::uint64_t>(try_n))
              .uniform();
      const auto backoff = std::chrono::microseconds(
          static_cast<long long>(1'000 + u * 9'000));
      wait_cohort(Clock::now() + backoff);
      if (obs::enabled()) {
        obs::MetricsRegistry::global().counter("fork_eagain_retries").add();
      }
    }
    Slot& slot = slots_[static_cast<std::size_t>(i) - 1];
    if (pid == 0) {
      // Child: a COW copy of everything the parent had. It keeps the write
      // end of its own result pipe and closes every other cohort
      // descriptor. The parent's open fork span is cancelled — only the
      // parent emits its end.
      fork_phase.cancel();
      my_index_ = i;
      out_ = std::move(slot.result.write_end);
      slots_.clear();
      status_.clear();
      if (opts_.governor != nullptr) opts_.governor->apply_child_rlimits();
      if (opts_.heap != nullptr) opts_.heap->begin_tracking();
      obs::set_current_race(race_id_);
      obs::prof_arm_child(race_id_, i);
      obs::emit(obs::EventKind::kGuardStart, race_id_,
                static_cast<std::int16_t>(i));
      child_run_t0_ = obs::phase_begin(obs::Phase::kArmRun, race_id_,
                                       static_cast<std::int16_t>(i));
      return i;
    }
    slot.spawned = Clock::now();
    slot.result.write_end.reset();
    slot.pidfd = Fd(open_pidfd(pid));
    if (obs::enabled()) {
      const std::uint64_t fork_ns = obs::now_ns() - fork_t0;
      obs::emit(obs::EventKind::kFork, race_id_, static_cast<std::int16_t>(i),
                static_cast<std::uint64_t>(pid), fork_ns);
      obs::MetricsRegistry::global().histogram("fork_latency_ns").record(fork_ns);
    }
    ChildStatus st;
    st.pid = pid;
    st.spawn_ns = obs::now_ns();
    status_.push_back(st);
  }
  return 0;
}

void AltGroup::child_commit(const Bytes& result) { child_sync(&result, true); }

void AltGroup::child_deliver(const Bytes& result) {
  child_sync(&result, false);
}

void AltGroup::child_abort() { child_sync(nullptr, false); }

void AltGroup::child_sync(const Bytes* result, bool take_token) {
  ALTX_REQUIRE(my_index_ != 0, "AltGroup: child sync called in the parent");
  const auto me = static_cast<std::int16_t>(my_index_);
  // The guard's outcome is recorded before the fault sync point, so the
  // trace still explains a child that the injector kills on its way in.
  obs::emit(obs::EventKind::kGuardResult, race_id_, me, result != nullptr);
  obs::phase_end(obs::Phase::kArmRun, race_id_, me, child_run_t0_);
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
  if (result == nullptr) {
    obs::emit(obs::EventKind::kGuardFail, race_id_, me);
    _exit(kExitAbort);
  }
  if (take_token) {
    // Try to take the token. First reader commits; everyone else is too
    // late.
    obs::emit(obs::EventKind::kCommitAttempt, race_id_, me);
    std::uint8_t token = 0;
    if (::read(token_.read_end.get(), &token, 1) != 1) {
      obs::emit(obs::EventKind::kTooLate, race_id_, me);
      _exit(kExitTooLate);
    }
    obs::emit(obs::EventKind::kCommitWon, race_id_, me,
              static_cast<std::uint64_t>(result->size()));
  }
  if (drop) {
    // Injected: the result is lost between synchronizing and publishing.
    // With the token gone nobody else can win — the block must fail and
    // the supervisor must notice. The unexpected exit status makes the
    // parent classify this child as crashed.
    _exit(kExitLost);
  }

  Bytes frame;
  ByteWriter w(frame);
  w.blob(result->data(), result->size());
  if (opts_.heap != nullptr) {
    w.u8(1);
    obs::ScopedPhase diff(obs::Phase::kPageDiff, race_id_, me);
    const Bytes patch = opts_.heap->serialize_dirty();
    diff.end();
    w.blob(patch.data(), patch.size());
  } else {
    w.u8(0);
  }
  {
    obs::ScopedPhase pipe(obs::Phase::kResultPipe, race_id_, me);
    write_frame(out_.get(), frame);
  }
  _exit(0);
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
  obs::ScopedPhase arm_phase(obs::Phase::kArmRun, race_id_);
  bool called_off = false;  // the deadline passed and the survivors were killed
  while (true) {
    std::size_t delivered = 0;
    std::size_t lost = 0;  // reaped without leaving a frame
    std::size_t first_ready = n;
    for (std::size_t i = 0; i < n; ++i) {
      Slot& slot = slots_[i];
      if (slot.ready && collect_all) {
        results_[i] = ByteReader(take_frame(i)).blob();
      }
      if (slot.ready && first_ready == n) first_ready = i;
      if (slot.delivered) ++delivered;
      if (reaped(i) && !slot.delivered && !slot.ready) ++lost;
    }
    if (!collect_all && first_ready < n) {
      arm_phase.end();
      Bytes frame;
      {
        obs::ScopedPhase pipe(obs::Phase::kResultPipe, race_id_);
        frame = take_frame(first_ready);
      }
      ByteReader r(frame);
      AltWinner win;
      win.index = static_cast<int>(first_ready) + 1;
      win.result = r.blob();
      if (r.u8() == 1) {
        const Bytes patch = r.blob();
        if (opts_.heap != nullptr) {
          obs::ScopedPhase absorb(obs::Phase::kAbsorb, race_id_);
          win.pages_absorbed = opts_.heap->apply_patch(patch);
        }
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
    // A race fails once every child is lost; a collect-all at the first.
    if (collect_all ? lost > 0 : lost == n) {
      verdict_kind_ = WaitVerdict::kAllFailed;
      break;
    }
    if (Clock::now() >= deadline) {
      // TIMEOUT: presume no alternative will succeed (section 3.2). A frame
      // that raced in before the kill is still honoured on the next pass.
      arm_phase.end();
      {
        obs::ScopedPhase elim(obs::Phase::kEliminate, race_id_);
        kill_survivors(ChildFate::kHung);
      }
      wait_cohort(Clock::now());
      called_off = true;
      continue;
    }
    wait_cohort(deadline);
  }

  decided_ = true;
  arm_phase.end();  // idempotent: already closed on the result/timeout paths
  if (!all_reaped()) {
    obs::ScopedPhase elim(obs::Phase::kEliminate, race_id_);
    kill_survivors(ChildFate::kEliminated);
    if (opts_.elimination == Eliminate::kSynchronous) reap_all();
  }
  const std::uint64_t decide_t0 =
      obs::phase_begin(obs::Phase::kDecide, race_id_, 0);
  finalize_accounting();  // no-op while losers are still unreaped
  obs::phase_end(obs::Phase::kDecide, race_id_, 0, decide_t0);
  if (obs::enabled()) {
    obs::emit(obs::EventKind::kRaceDecided, race_id_, 0,
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

Bytes AltGroup::take_frame(std::size_t i) {
  Slot& slot = slots_[i];
  std::optional<Bytes> frame = read_frame(slot.result.read_end.get());
  ALTX_REQUIRE(frame.has_value(), "AltGroup: result pipe ready but empty");
  slot.result.read_end.reset();  // one frame per child
  slot.ready = false;
  slot.delivered = true;
  return std::move(*frame);
}

void AltGroup::wait_cohort(Clock::time_point deadline) {
  deadline = std::min(deadline, enforce_deadlines());
  // One pollfd per open result pipe not yet known to hold a frame, and one
  // per unreaped child's pidfd; `owner` maps each back to (child, is_pidfd).
  std::vector<pollfd> fds;
  std::vector<std::pair<std::size_t, bool>> owner;
  bool blind = false;  // some live child has no pidfd
  for (std::size_t i = 0; i < status_.size(); ++i) {
    Slot& slot = slots_[i];
    if (slot.result.read_end.valid() && !slot.ready) {
      fds.push_back({slot.result.read_end.get(), POLLIN, 0});
      owner.emplace_back(i, false);
    }
    if (reaped(i)) continue;
    if (slot.pidfd.valid()) {
      fds.push_back({slot.pidfd.get(), POLLIN, 0});
      owner.emplace_back(i, true);
    } else {
      blind = true;
    }
  }
  auto wait = std::chrono::ceil<std::chrono::milliseconds>(deadline -
                                                           Clock::now());
  if (blind) wait = std::min(wait, kBlindPoll);
  const int timeout_ms = static_cast<int>(std::clamp<long long>(
      wait.count(), 0, std::numeric_limits<int>::max()));
  const int r = ::poll(fds.data(), fds.size(), timeout_ms);
  if (r < 0 && errno != EINTR) throw_errno("poll");
  for (std::size_t k = 0; r > 0 && k < fds.size(); ++k) {
    if (fds[k].revents == 0) continue;
    const auto [i, is_pidfd] = owner[k];
    Slot& slot = slots_[i];
    if (is_pidfd) {
      reap(i, WNOHANG);
      // Readable but not reapable (SIGCHLD ignored, say): stop polling the
      // pidfd, or it would spin, and find the exit the blind way.
      if (!reaped(i)) slot.pidfd.reset();
    } else if ((fds[k].revents & POLLIN) != 0) {
      slot.ready = true;
    } else {
      slot.result.read_end.reset();  // EOF: the child left without a frame
    }
  }
  if (blind) {
    for (std::size_t i = 0; i < status_.size(); ++i) {
      if (!reaped(i) && !slots_[i].pidfd.valid()) reap(i, WNOHANG);
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
  int live_arms = 0;
  for (std::size_t i = 0; i < status_.size(); ++i) {
    Slot& slot = slots_[i];
    if (live(i)) ++live_arms;
    if (reaped(i) || slot.term_deadline == kNever || !due(slot.term_deadline)) {
      continue;
    }
    ::kill(status_[i].pid, SIGKILL);  // the SIGTERM's grace expired
    slot.term_deadline = kNever;
    if (slot.kill_fate == ChildFate::kOverBudget ||
        slot.kill_fate == ChildFate::kPredictedLoser) {
      opts_.governor->note_kill(slot.gov_reason, /*escalation=*/true);
      emit_governed_kill(i, /*stage=*/1);
    }
  }
  SpeculationGovernor* const gov = opts_.governor;
  if (gov == nullptr || live_arms == 0) return next;

  const GovernorConfig& cfg = gov->config();
  auto kill_arm = [&](std::size_t i, GovKillReason reason) {
    governed_kill(i, reason);
    --live_arms;
    next = std::min(next, slots_[i].term_deadline);
  };
  for (std::size_t i = 0; i < status_.size(); ++i) {
    if (!live(i)) continue;
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
        i < opts_.pred_kill_ns.size() ? opts_.pred_kill_ns[i] : 0;
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
  // starving the whole block would trade an outcome for memory.
  if (live_arms >= 2 && due(next_shed_check_)) {
    next_shed_check_ =
        now + std::max(cfg.pressure_interval, std::chrono::milliseconds(1));
    next = std::min(next, next_shed_check_);
    if (gov->shedding()) {
      for (std::size_t i = status_.size(); i-- > 0;) {
        if (live(i)) {
          kill_arm(i, GovKillReason::kShed);
          break;
        }
      }
    }
  }
  return next;
}

void AltGroup::kill_child(std::size_t i, ChildFate fate,
                          std::chrono::milliseconds grace) {
  Slot& slot = slots_[i];
  slot.kill_fate = fate;
  if (grace.count() > 0) {
    ::kill(status_[i].pid, SIGTERM);
    slot.term_deadline = Clock::now() + grace;
  } else {
    ::kill(status_[i].pid, SIGKILL);
  }
}

void AltGroup::governed_kill(std::size_t i, GovKillReason reason) {
  const std::chrono::milliseconds grace = opts_.governor->config().kill_grace;
  kill_child(i,
             reason == GovKillReason::kPredicted ? ChildFate::kPredictedLoser
                                                 : ChildFate::kOverBudget,
             grace);
  slots_[i].gov_reason = reason;
  opts_.governor->note_kill(reason, /*escalation=*/false);
  emit_governed_kill(i, grace.count() > 0 ? 0 : 1);
}

void AltGroup::emit_governed_kill(std::size_t i, std::uint64_t stage) const {
  // Predicted kills get their own event kind (the trace ties them back to
  // the arm's history quantile); every other reason keeps kGovKill.
  const bool predicted = slots_[i].gov_reason == GovKillReason::kPredicted;
  obs::emit(predicted ? obs::EventKind::kPredKill : obs::EventKind::kGovKill,
            race_id_, static_cast<std::int16_t>(i + 1),
            static_cast<std::uint64_t>(status_[i].pid),
            predicted ? opts_.pred_kill_ns[i]
                      : static_cast<std::uint64_t>(slots_[i].gov_reason),
            stage);
}

void AltGroup::reap(std::size_t i, int flags) {
  int status = 0;
  struct rusage ru {};
  if (wait4_eintr(status_[i].pid, &status, flags, &ru) == status_[i].pid) {
    record_exit(i, status, decode_rusage(ru));
  }
}

void AltGroup::finish() {
  reap_all();
  release_remaining_tokens();
  finalize_accounting();
}

int AltGroup::count_fate(ChildFate fate) const {
  int n = 0;
  for (const auto& st : status_) {
    if (st.fate == fate) ++n;
  }
  return n;
}

void AltGroup::kill_survivors(ChildFate fate) {
  // Children that delivered are on their way out through _exit(0) and are
  // only reaped; children already killed keep the fate of that first kill.
  const std::chrono::milliseconds grace = kill_grace();
  for (std::size_t i = 0; i < status_.size(); ++i) {
    const Slot& slot = slots_[i];
    if (!reaped(i) && !slot.delivered &&
        slot.kill_fate == ChildFate::kRunning) {
      kill_child(i, fate, grace);
    }
  }
  // Graceful elimination: SIGTERM first, so a loser with cleanup to do
  // (flush a log, drop a lock file) gets the grace window, and the cohort
  // wait SIGKILLs whatever still stands when its window ends — a governed
  // kill's window included. Children reaped meanwhile keep the normal fate
  // pipeline: a SIGTERM death is still "we killed it".
  auto term_pending = [this] {
    for (std::size_t i = 0; i < status_.size(); ++i) {
      if (!reaped(i) && slots_[i].term_deadline != kNever) return true;
    }
    return false;
  };
  while (term_pending()) wait_cohort(kNever);
}

bool AltGroup::all_reaped() const {
  for (std::size_t i = 0; i < status_.size(); ++i) {
    if (!reaped(i)) return false;
  }
  return true;
}

void AltGroup::reap_all() {
  for (std::size_t i = 0; i < status_.size(); ++i) {
    if (!reaped(i)) reap(i, 0);
  }
}

void AltGroup::release_remaining_tokens() {
  if (opts_.governor == nullptr || tokens_released_ >= tokens_held_) return;
  opts_.governor->release(tokens_held_ - tokens_released_);
  tokens_released_ = tokens_held_;
}

void AltGroup::record_exit(std::size_t i, int status,
                           const ChildUsage& usage) {
  ChildStatus& st = status_[i];
  Slot& slot = slots_[i];
  slot.pidfd.reset();
  // The child is gone, so whatever it wrote is in the pipe in full: either
  // a frame waits there or it never will.
  if (slot.result.read_end.valid() && !slot.ready) {
    slot.ready = has_data(slot.result.read_end.get());
    if (!slot.ready) slot.result.read_end.reset();
  }
  const bool killed = slot.kill_fate != ChildFate::kRunning;
  st.usage = usage;
  st.reap_ns = obs::now_ns();
  if (opts_.governor != nullptr) {
    if (tokens_released_ < tokens_held_) {
      // One token back per reaped child: a block winding down frees budget
      // for queued blocks before its own teardown completes.
      opts_.governor->release(1);
      ++tokens_released_;
    }
  }
  const ExitInfo info = decode_wait_status(status);
  if (info.exited) {
    st.exit_code = info.exit_code;
    if (st.exit_code == 0) {
      st.fate = ChildFate::kCommitted;
    } else if (st.exit_code == kExitAbort) {
      st.fate = ChildFate::kAborted;
      ++aborted_;
    } else if (st.exit_code == kExitTooLate) {
      st.fate = ChildFate::kTooLate;
    } else {
      st.fate = ChildFate::kCrashed;  // an exit no protocol path produces
    }
  } else if (info.signaled) {
    st.signal = info.signal;
    if (killed && (slot.delivered || slot.ready)) {
      // A kill we sent caught a child between writing its result and
      // _exit(0). The result stands, so this is a commit — classifying it
      // otherwise would bill the winner's CPU and pages as speculation
      // waste.
      st.fate = ChildFate::kCommitted;
    } else if (killed) {
      // We sent the kill, and its fate says why: hung past the TIMEOUT;
      // routine elimination — after a winner, or after a collect-all
      // sibling failed; or, governed, over budget (wall / CPU), shed under
      // pressure, or past its own historical kill quantile — containment,
      // which the supervisor and the ledger tell apart from a crash. A
      // child that died of its own SIGKILL in the window between our poll
      // and our kill is indistinguishable — attributed to us.
      st.fate = slot.kill_fate;
    } else {
      st.fate = ChildFate::kCrashed;
    }
  } else {
    st.fate = ChildFate::kCrashed;
  }
  // Pick up the child's dirty-page census if it published one before dying.
  // The acquire pairs with the child's release store: a torn slot is never
  // read, it just counts as "no census" (zeros).
  if (census_ != nullptr && i < census_slots_ &&
      census_[i].ready.load(std::memory_order_acquire) != 0) {
    st.dirty_pages = census_[i].dirty_pages;
    st.dirty_bytes = census_[i].dirty_bytes;
  }
  if (obs::enabled()) {
    // The terminal fate event: exactly one per reaped child, parent-side,
    // so it exists even when the child died before its first instruction.
    obs::emit(obs::EventKind::kChildFate, race_id_,
              static_cast<std::int16_t>(i + 1),
              static_cast<std::uint64_t>(st.fate),
              static_cast<std::uint64_t>(st.signal),
              static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  st.exit_code)));
    // The kernel's bill for this child, from wait4 — valid even when the
    // child never ran a line of the protocol.
    obs::emit(obs::EventKind::kChildUsage, race_id_,
              static_cast<std::int16_t>(i + 1), usage.cpu_ns, usage.maxrss_kb,
              (usage.minor_faults << 32) |
                  (usage.major_faults & 0xffffffffULL));
    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter(std::string("fate_") + to_string(st.fate)).add();
  }
}

void AltGroup::publish_census() {
  std::uint64_t pages = 0;
  std::uint64_t bytes = 0;
  if (opts_.heap != nullptr) {
    pages = static_cast<std::uint64_t>(opts_.heap->dirty_pages().size());
    bytes = pages * static_cast<std::uint64_t>(opts_.heap->page_size());
  }
  if (census_ != nullptr && my_index_ >= 1 &&
      static_cast<std::size_t>(my_index_) <= census_slots_) {
    CensusSlot& slot = census_[static_cast<std::size_t>(my_index_) - 1];
    slot.dirty_pages = pages;
    slot.dirty_bytes = bytes;
    slot.ready.store(1, std::memory_order_release);
  }
  obs::emit(obs::EventKind::kChildPages, race_id_,
            static_cast<std::int16_t>(my_index_), pages, bytes);
}

SpeculationReport AltGroup::speculation_report() const {
  SpeculationReport rep;
  for (std::size_t i = 0; i < status_.size(); ++i) {
    if (!reaped(i)) continue;
    const ChildStatus& st = status_[i];
    rep.total_cpu_ns += st.usage.cpu_ns;
    ++rep.children_costed;
    if (st.fate == ChildFate::kCommitted) {
      // The winner's pages were absorbed, not discarded; its CPU is the
      // price of the answer itself.
      rep.winner_cpu_ns += st.usage.cpu_ns;
    } else {
      rep.discarded_pages += st.dirty_pages;
      rep.discarded_bytes += st.dirty_bytes;
    }
  }
  rep.wasted_cpu_ns = rep.total_cpu_ns - rep.winner_cpu_ns;
  return rep;
}

void AltGroup::finalize_accounting() {
  if (accounted_ || !spawned_ || my_index_ != 0) return;
  for (std::size_t i = 0; i < status_.size(); ++i) {
    if (!reaped(i)) return;  // ledger incomplete; try again at next reap
  }
  accounted_ = true;
  if (!obs::enabled()) return;
  const SpeculationReport rep = speculation_report();
  obs::emit(obs::EventKind::kSpecReport, race_id_, 0, rep.wasted_cpu_ns,
            rep.discarded_pages, rep.winner_cpu_ns);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("spec_wasted_cpu_ns").add(rep.wasted_cpu_ns);
  metrics.counter("spec_discarded_pages").add(rep.discarded_pages);
  metrics.counter("spec_discarded_bytes").add(rep.discarded_bytes);
  metrics.histogram("spec_overhead_ratio_x100")
      .record(static_cast<std::uint64_t>(rep.overhead_ratio() * 100.0));
}

}  // namespace altx::posix
