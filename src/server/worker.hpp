// The zygote pool: pre-warmed job workers re-forked from a quiescent
// template.
//
// Why not fork workers from the daemon directly? Fork cost scales with the
// parent's address space — page tables, VMAs, the COW bookkeeping — and the
// daemon accretes client buffers, queues, and trace state. The zygote is
// forked at startup while the process is still small and then *never*
// grows: every worker is re-forked from that frozen template, so job spawn
// cost stays at the small-parent price however big the daemon gets
// (bench_e18_server measures the gap). Task Frames' decoupling of an
// activation from its caller's stack, done with processes.
//
// Lifecycle:
//
//   Server::start() ── fork ──> zygote (quiescent template)
//        │  spawn_worker():                │ fork per 'S' command
//        │   send 'S' + job fd ───────────>│
//        │<─ worker pid ──────────────────┌┴─> worker (setsid-free, own pgid)
//        │  job frames over the job fd ──────>│ posix::race<Bytes> per job,
//        │<───────────────── result frames ───│ arena reset between jobs
//
// A worker runs one job at a time, in the order the daemon sent them; the
// daemon queues at most one more ahead in its socket, so the worker starts
// the next job the moment it replies. A job sent ahead carries a claim on
// the ClaimBoard below: the worker starts it only if it takes the claim,
// and the daemon can withdraw it until then (to give it to a worker that
// went idle, or to answer a cancel), so a job sent ahead runs at most once
// and the daemon always knows whether it started. The arms a job's verdict
// eliminated are reaped by the next job's spawn; a worker drains them
// itself only when its socket holds no next job — it never idles on a
// dying loser, whose governor token came back at the verdict anyway.
//
// The zygote ignores SIGCHLD (exited workers self-reap); workers restore
// SIGCHLD before racing (AltGroup must be able to waitpid its arms). A
// worker puts itself in its own process group so the daemon can take down
// the whole cohort — worker plus live arms — with one kill(-pid). A worker
// makes its own AltHeap arena on its first job that asks for one (the
// template holds none: an arena there would be one memfd that every worker
// maps; a worker that runs no heap job maps none) and punches it clear
// between jobs; an arena that cannot be made fails that job with kError. No
// exception leaves the template or a worker: either ends in _exit.
//
// A job carries its client's site_id over the hop, and a worker plans it as
// any race<T> does: with ALTX_PRED=1 in the daemon's environment, through
// SpeculationPlanner::global() over the history store the worker inherited.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "posix/fd.hpp"
#include "posix/governor.hpp"

namespace altx::server {

/// Two words per worker slot in a MAP_SHARED mapping made before the
/// zygote fork, so the daemon and every worker see the same words. Before
/// the daemon sends a job ahead to a busy worker it offer()s a fresh claim
/// — the word and a daemon-wide sequence number — into a free word of the
/// slot and ships the claim in JobSpec::claim. Whoever take()s the claim
/// first owns the job: the worker then runs it, the daemon has it back and
/// the worker skips it. Exactly one of them wins. A slot needs two
/// words: the worker replies to a job before it takes the next one's claim,
/// so the daemon may send a job ahead behind one whose claim is still
/// untaken. Only a job the daemon still holds for the worker can have an
/// untaken claim, and the daemon clears the slot when it tears its worker
/// down, so a free word is always there when it sends a job ahead.
class ClaimBoard {
 public:
  explicit ClaimBoard(std::size_t slots);
  ~ClaimBoard();
  ClaimBoard(const ClaimBoard&) = delete;
  ClaimBoard& operator=(const ClaimBoard&) = delete;

  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }

  /// Daemon: a new claim for `slot`, stored in a free word of it.
  std::uint64_t offer(std::size_t slot);
  /// Daemon: drops every claim of `slot`, once its worker is dead.
  void clear(std::size_t slot) noexcept;
  /// Swaps the claim out of its word: true for the first caller only,
  /// daemon or worker.
  bool take(std::uint64_t claim) noexcept;

 private:
  std::atomic<std::uint64_t>* word(std::uint64_t claim) const noexcept;

  std::atomic<std::uint64_t>* words_ = nullptr;
  std::size_t slots_ = 0;
  std::uint64_t seq_ = 0;
};

struct ZygoteConfig {
  /// Arena pages each worker owns for heap-carrying jobs (0 = no arena).
  std::size_t heap_pages = 64;

  /// Admission governor shared with the daemon (MAP_SHARED pool, inherited
  /// through the zygote fork). nullptr = races resolve global() as usual.
  posix::SpeculationGovernor* governor = nullptr;

  /// The daemon's claims on jobs it sends ahead (inherited through the
  /// zygote fork). nullptr = every job a worker reads is its to run.
  ClaimBoard* claims = nullptr;
};

class Zygote {
 public:
  /// Forks the template now. Call early — before listeners, buffers, or
  /// clients exist — so the template (and every worker forked from it)
  /// stays small.
  static Zygote spawn(const ZygoteConfig& cfg);

  Zygote(Zygote&& other) noexcept;
  Zygote& operator=(Zygote&& other) noexcept;
  ~Zygote();

  struct WorkerHandle {
    pid_t pid = -1;
    posix::Fd job_fd;  // daemon end of the worker's job socketpair
  };

  /// Asks the template to fork a fresh worker; returns its pid and the fd
  /// the daemon sends job frames on. Closing the fd makes the worker exit
  /// cleanly after its current job.
  WorkerHandle spawn_worker();

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] bool alive() const noexcept { return pid_ > 0; }

  /// Closes the control socket (template exits on EOF) and reaps it.
  void shutdown();

 private:
  Zygote() = default;

  void shutdown_nothrow() noexcept;

  posix::Fd control_;  // daemon end of the template's command socket
  pid_t pid_ = -1;
};

}  // namespace altx::server
