#include "posix/reap.hpp"

#include <poll.h>
#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <iterator>
#include <mutex>
#include <new>
#include <string>

#include "obs/history.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace altx::posix {

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

void SpeculationReport::add(const ChildStatus& st) {
  total_cpu_ns += st.usage.cpu_ns;
  ++children_costed;
  if (st.fate == ChildFate::kCommitted) {
    // The winner's pages were absorbed, not discarded; its CPU is the price
    // of the answer itself.
    winner_cpu_ns += st.usage.cpu_ns;
  } else {
    discarded_pages += st.dirty_pages;
    discarded_bytes += st.dirty_bytes;
  }
  wasted_cpu_ns = total_cpu_ns - winner_cpu_ns;
}

namespace {

ChildFate classify(const ExitInfo& info, const ReapNote& note) {
  if (info.exited) {
    switch (info.exit_code) {
      case 0: return ChildFate::kCommitted;
      case kExitAbort: return ChildFate::kAborted;
      case kExitTooLate: return ChildFate::kTooLate;
      default: return ChildFate::kCrashed;  // an exit no protocol path makes
    }
  }
  if (info.signaled && note.kill_fate == ChildFate::kRunning) {
    return ChildFate::kCrashed;  // a signal we did not send
  }
  // Killed by us, or gone with no status (reaped elsewhere). A kill we sent
  // caught a child between writing its result and _exit(0): the result
  // stands, so this is a commit — anything else would bill the winner's CPU
  // and pages as speculation waste. Otherwise the kill's fate says why we
  // sent it: hung past the TIMEOUT; routine elimination; or, governed, over
  // budget, shed under pressure, or past its own historical kill quantile.
  // A child that died of its own SIGKILL between our poll and our kill is
  // indistinguishable — attributed to us. With no status and no kill, an
  // abort frame says it aborted, and no frame at all that it crashed.
  if (note.frame_out) return ChildFate::kCommitted;
  if (note.kill_fate != ChildFate::kRunning) return note.kill_fate;
  return note.aborted ? ChildFate::kAborted : ChildFate::kCrashed;
}

}  // namespace

void record_exit(ChildStatus& st, const ReapNote& note,
                 std::optional<int> wait_status, const ChildUsage& usage) {
  const ExitInfo info =
      wait_status.has_value() ? decode_wait_status(*wait_status) : ExitInfo{};
  if (info.exited) st.exit_code = info.exit_code;
  if (info.signaled) st.signal = info.signal;
  if (st.fate == ChildFate::kRunning) st.fate = classify(info, note);
  st.usage = usage;
  if (st.reap_ns == 0) st.reap_ns = obs::now_ns();
  if (obs::enabled()) {
    const BlockIds& ids = note.ids;
    const auto arm = static_cast<std::int16_t>(note.arm);
    // The terminal fate event: exactly one per forked child, parent-side,
    // so it exists even when the child died before its first instruction.
    obs::emit_trace(ids.trace_id, ids.attempt, obs::EventKind::kChildFate,
                    ids.race_id, arm, static_cast<std::uint64_t>(st.fate),
                    static_cast<std::uint64_t>(st.signal),
                    static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(st.exit_code)));
    // The kernel's bill for this child, from wait4 — valid even when the
    // child never ran a line of the protocol.
    obs::emit_trace(ids.trace_id, ids.attempt, obs::EventKind::kChildUsage,
                    ids.race_id, arm, usage.cpu_ns, usage.maxrss_kb,
                    (usage.minor_faults << 32) |
                        (usage.major_faults & 0xffffffffULL));
    obs::MetricsRegistry::global()
        .counter(std::string("fate_") + to_string(st.fate))
        .add();
  }
  // One history sample per arm that ran: wall from the parent's spawn/reap
  // clamps, CPU from the wait4 bill, success = it committed. A hedged arm
  // that lost ran only from its late start to the verdict: folding that
  // censored wall in would teach the store that a slow arm is fast — a
  // self-fulfilling prophecy that unravels the plan — so only its commit
  // counts.
  const bool committed = st.fate == ChildFate::kCommitted;
  if (note.site_id == 0 || (note.censored && !committed)) return;
  if (obs::HistoryStore* h = obs::history(); h != nullptr) {
    const std::uint64_t wall =
        st.reap_ns > st.spawn_ns ? st.reap_ns - st.spawn_ns : 0;
    h->record(note.site_id, note.history_arm, wall, usage.cpu_ns, committed);
  }
}

void BlockBill::add(const ChildStatus& st) {
  rep.add(st);
  if (--outstanding == 0) emit();
}

void BlockBill::emit() const {
  if (!obs::enabled()) return;
  obs::emit_trace(ids.trace_id, ids.attempt, obs::EventKind::kSpecReport,
                  ids.race_id, 0, rep.wasted_cpu_ns, rep.discarded_pages,
                  rep.winner_cpu_ns);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("spec_wasted_cpu_ns").add(rep.wasted_cpu_ns);
  metrics.counter("spec_discarded_pages").add(rep.discarded_pages);
  metrics.counter("spec_discarded_bytes").add(rep.discarded_bytes);
  metrics.histogram("spec_overhead_ratio_x100")
      .record(static_cast<std::uint64_t>(rep.overhead_ratio() * 100.0));
}

namespace {

struct ReapSet {
  // The process whose children the set holds. A forked child inherits its
  // parent's set and never touches it; it resets the set only when it hands
  // over children of its own (claim_set). No fork handler runs, so neither
  // side of a fork writes the set's page for it.
  std::atomic<pid_t> owner{0};
  std::mutex mu;  // guards children, handoffs and every finish()
  std::vector<DeferredChild> children;
  std::atomic<std::size_t> held{0};  // children.size(), read without mu
  std::uint64_t handoffs = 0;
};

std::atomic<std::uint64_t> g_second_commits{0};

// Hand-offs are told apart per thread: a spawn waits only for what its own
// thread's verdicts handed over, never for another thread's fresh losers.
std::atomic<std::uint64_t> g_threads{0};
thread_local const std::uint64_t t_thread = ++g_threads;
thread_local std::uint64_t t_last_handoff = 0;  // this thread's latest

ReapSet& reap_set() {
  // Leaked: the exit drain and late destructors use it.
  static ReapSet* const set = [] {
    auto* s = new ReapSet;
    s->owner.store(::getpid(), std::memory_order_release);
    std::atexit(reap_eliminated);
    return s;
  }();
  return *set;
}

/// The set when it holds this process's children; nullptr in a forked child
/// that has handed over none yet (what it inherited is its parent's).
ReapSet* own_set() {
  ReapSet& s = reap_set();
  return s.owner.load(std::memory_order_acquire) == ::getpid() ? &s : nullptr;
}

/// The set, made this process's own first where it is still the parent's: a
/// forked child builds an empty vector and a fresh mutex over the inherited
/// ones without destroying them, so no entry is touched — no descriptor
/// closed, no bill dropped — and a lock its parent held at the fork is not
/// the child's. The inherited descriptors close when the child exits. A
/// thread that finds another thread of the child resetting waits for it.
ReapSet& claim_set() {
  ReapSet& s = reap_set();
  const pid_t self = ::getpid();
  pid_t seen = s.owner.load(std::memory_order_acquire);
  if (seen == self) return s;
  if (seen != -self &&
      s.owner.compare_exchange_strong(seen, -self, std::memory_order_acq_rel)) {
    new (&s.mu) std::mutex();
    new (&s.children) std::vector<DeferredChild>();
    s.held.store(0, std::memory_order_relaxed);
    s.owner.store(self, std::memory_order_release);
    return s;
  }
  while (s.owner.load(std::memory_order_acquire) != self) sched_yield();
  return s;
}

/// Delivers what a reap of `c` owes, under the set's lock.
void finish(DeferredChild& c, std::optional<int> status,
            const ChildUsage& usage) {
  pollfd pfd{c.result.get(), POLLIN, 0};
  if (c.block_won && c.result.valid() && ::poll(&pfd, 1, 0) > 0 &&
      (pfd.revents & POLLIN) != 0) {
    // The child is gone, so whatever it wrote is there; a length word
    // (written atomically) other than an abort's 0 is a commit the verdict
    // never took.
    std::uint64_t len = 0;
    if (::read(c.result.get(), &len, sizeof len) ==
            static_cast<ssize_t>(sizeof len) &&
        len > 0) {
      g_second_commits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  record_exit(c.st, c.note, status, usage);
  if (c.bill != nullptr) c.bill->add(c.st);
}

/// Waits for `c` (not in the set any more) and delivers it.
void reap_blocking(DeferredChild& c) {
  int status = 0;
  struct rusage ru {};
  const bool ok = wait4_eintr(c.st.pid, &status, 0, &ru) == c.st.pid;
  std::lock_guard<std::mutex> lock(reap_set().mu);
  finish(c, ok ? std::optional(status) : std::nullopt,
         ok ? decode_rusage(ru) : ChildUsage{});
}

}  // namespace

void defer_reap(std::span<DeferredChild> children) {
  if (children.empty()) return;
  ReapSet& s = claim_set();
  std::lock_guard<std::mutex> lock(s.mu);
  t_last_handoff = ++s.handoffs;
  for (DeferredChild& c : children) {
    c.thread = t_thread;
    c.generation = s.handoffs;
    s.children.push_back(std::move(c));
  }
  s.held.store(s.children.size(), std::memory_order_relaxed);
}

void sweep_eliminated(bool at_spawn) {
  ReapSet* const own = own_set();
  // An empty set is not locked: the lock would write its page, which a
  // parent shares with the arms it just forked.
  if (own == nullptr || own->held.load(std::memory_order_relaxed) == 0) return;
  ReapSet& s = *own;
  std::vector<DeferredChild> late;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto it = s.children.begin(); it != s.children.end();) {
      if (at_spawn && it->thread == t_thread &&
          it->generation < t_last_handoff) {
        late.push_back(std::move(*it));
        it = s.children.erase(it);
        continue;
      }
      int status = 0;
      struct rusage ru {};
      const pid_t r = wait4_eintr(it->st.pid, &status, WNOHANG, &ru);
      if (r == 0) {
        ++it;
        continue;
      }
      // r < 0: someone else reaped it (a waitpid(-1), SIGCHLD ignored); its
      // verdict fate stands, with no bill.
      finish(*it, r > 0 ? std::optional(status) : std::nullopt,
             r > 0 ? decode_rusage(ru) : ChildUsage{});
      it = s.children.erase(it);
    }
    s.held.store(s.children.size(), std::memory_order_relaxed);
  }
  for (DeferredChild& c : late) reap_blocking(c);
}

void reap_eliminated() {
  ReapSet* const own = own_set();
  if (own == nullptr) return;
  ReapSet& s = *own;
  std::vector<DeferredChild> all;
  {
    // Moved out rather than swapped, so the set keeps its capacity and a
    // later hand-off does not allocate.
    std::lock_guard<std::mutex> lock(s.mu);
    all.assign(std::make_move_iterator(s.children.begin()),
               std::make_move_iterator(s.children.end()));
    s.children.clear();
    s.held.store(0, std::memory_order_relaxed);
  }
  for (DeferredChild& c : all) reap_blocking(c);
}

std::uint64_t second_commits() {
  return g_second_commits.load(std::memory_order_relaxed);
}

}  // namespace altx::posix
