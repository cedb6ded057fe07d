// The unified trace-event schema shared by every altx backend.
//
// The paper's argument is quantitative — §4 measures fork cost, COW copy
// rates, and which alternative wins — so the runtime must be able to say,
// after the fact, *why* a given alternative won, lost, arrived too late, or
// was retried. The simulator always could (sim::TraceEvent); this schema
// generalizes that stream so the real-process backend, the supervisor, the
// distributed layer, and the consensus protocol all speak it too.
//
// A Record is a fixed-size POD (64 bytes) so that it can live in a shared
// ring buffer written concurrently by forked children (see obs/ring.hpp):
// no pointers, no strings, no destructors — a child killed mid-run leaves
// at worst one torn slot, never a corrupted heap.
#pragma once

#include <cstdint>

namespace altx::obs {

/// What happened. Kinds are grouped by the layer that emits them; the
/// numeric values are part of the on-disk jsonl format, so append only.
enum class EventKind : std::uint16_t {
  kNone = 0,

  // Alternative-block lifecycle (posix::AltGroup / race / sim kernel).
  kRaceBegin = 1,     // a: number of alternatives, b: replicas
  kFork = 2,          // a: child pid, b: the whole fork step ns (result
                      //   pipe, fork(2), pidfd), c: the fork(2) call alone
  kGuardStart = 3,    // child side: alternative body begins
  kGuardResult = 4,   // child side: a: 1 = guard held, 0 = failed
  kCommitAttempt = 5, // child side: about to take the token
  kCommitWon = 6,     // child side: took the token (the winner)
  kTooLate = 7,       // child side: token already gone (section 3.2.1)
  kGuardFail = 8,     // child side: aborting without synchronization
  kChildFate = 9,     // parent side, at reap (maybe after kRaceDecided,
                      //   by the reap set): a: ChildFate, b: signal,
                      //   c: raw exit code (u64-encoded)
  kRaceDecided = 10,  // parent side: a: WaitVerdict, b: winner index (0 =
                      //   none), c: pages absorbed
  kEliminated = 11,   // (sim) a loser was physically terminated

  // Speculation-efficiency accounting (posix::AltGroup).
  kChildUsage = 12,   // parent side, at reap: a: CPU ns (user+sys, wait4
                      //   rusage), b: maxrss KiB, c: minor<<32 | major faults
  kChildPages = 13,   // child side, before its sync point: a: dirty pages in
                      //   the AltHeap, b: dirty bytes
  kSpecReport = 14,   // parent side, once all of the block's children are
                      //   reaped (by it or the reap set): a: wasted CPU ns
                      //   (losers), b: discarded pages, c: winner CPU ns
  kRingOverflow = 15, // synthesized at export when the ring dropped records:
                      //   a: records dropped

  // Supervision spans (posix::supervised_race).
  kAttemptBegin = 16, // a: attempt number (0-based), b: timeout ms
  kAttemptEnd = 17,   // a: attempt number, b: AttemptOutcome
  kBackoff = 18,      // a: attempt number about to run, b: backoff ms
                      // 19 is retired (the in-process fallback).

  // Resource governance (posix::SpeculationGovernor). Kinds are append-only,
  // not contiguous: 22, 24 and 26 are retired.
  kGovAdmitWait = 20, // a: tokens requested, b: in flight, c: effective budget
  kGovAdmit = 21,     // a: tokens granted, b: in flight after, c: waited ns
  kGovKill = 23,      // governed wait: a: pid, b: reason (0 wall, 1 cpu, 2 shed),
                      //   c: unused (it was the SIGTERM/SIGKILL stage)
  kGovBudget = 25,    // a: new effective budget, b: base budget,
                      //   c: pressure stall pct x100
  kGovOverdraft = 27, // single-token liveness overdraft; a: in flight after
  kGovNarrow = 53,    // a grant of fewer tokens than asked; a: tokens
                      //   requested, b: tokens granted

  // Phase spans + sampling profiles (obs/phase.hpp, obs/profile.hpp).
  kPhaseBegin = 28,   // a: Phase id (obs::Phase); child_index 0 = parent span
  kPhaseEnd = 29,     // a: Phase id, b: span duration ns (self-contained, so
                      //   a SIGKILL between begin and end truncates cleanly)
  kProfSample = 30,   // child side, SIGPROF handler: one backtrace fragment.
                      //   a, b: two pc values (0 = unused), c: sample_id<<16
                      //   | fragment_index<<8 | total_fragments
  kProfMap = 31,      // a: main executable load base (dl_iterate_phdr) so
                      //   sample pcs symbolize as exe+offset post-ASLR

  // Conjunction (posix::await_all).
  kAwaitBegin = 32,   // a: task count
  kAwaitTaskDone = 33,// child side: a: 1 = produced a value, 0 = failed
  kAwaitDecided = 34, // parent side: a: 1 = all collected, 0 = failed

  // The altxd speculation server (src/server). `a` carries the client id
  // (the daemon's connection ordinal) where noted; job ids are the
  // client-chosen per-connection ids from the frame header.
  kSrvConnect = 35,   // a: client id, b: 1 = tcp, 0 = unix
  kSrvSubmit = 36,    // a: client id, b: job id, c: alternatives in the job
  kSrvDeny = 37,      // a: client id, b: job id, c: retry-after ms
  kSrvAssign = 38,    // a: job id, b: worker pid, c: queue wait so far ns
  kSrvResult = 39,    // a: job id, b: JobStatus, c: worker exec ns
  kSrvCancel = 40,    // a: job id, b: 1 = was running (cohort torn down)
  kSrvClientGone = 41,// a: client id, b: queued jobs dropped, c: running reaped
  kSrvWorkerSpawn = 42, // a: worker pid, b: spawn latency ns, c: 1 = respawn
  kSrvWorkerExit = 43,  // a: worker pid, b: 1 = forced (killed), 0 = clean
  kSrvShutdown = 44,    // a: in-flight jobs reaped, b: workers torn down

  // Prediction-driven speculation budgeting (posix::SpeculationPlanner).
  kPredPlan = 45,     // parent side, after spawn: a: arms launched now,
                      //   b: arms hedged (staged), c: arms skipped
  kPredStage = 46,    // parent side: the group forked an arm its launch
                      //   schedule deferred (a planner hedge, a hedged()
                      //   copy); a: start delay ns, b: the arm's kill
                      //   deadline ns from launch (0 = none)
  kPredKill = 47,     // governed wait: arm overran its historical kill quantile;
                      //   a: pid, b: predicted kill quantile ns,
                      //   c: unused (it was the SIGTERM/SIGKILL stage)

  // Distributed block (dist::DistributedBlock; timestamps are sim time).
  kDistSpawn = 48,    // a: alternative index, b: checkpoint bytes
  kDistAbort = 49,    // a: alternative index (guard failed remotely)
  kDistResult = 50,   // a: alternative index (result reached coordinator)
  kDistKill = 51,     // a: alternative index (elimination message sent)
  kDistDecided = 52,  // a: 1 = committed, 0 = failed; b: winner index

  // Majority-consensus semaphore (consensus::MajoritySync; sim time).
  kVoteGrant = 64,    // a: candidate id, b: arbiter node
  kVoteReject = 65,   // a: candidate id, b: arbiter node
  kSyncDecided = 66,  // a: candidate id, b: 1 = won, c: rounds used

  // Simulator events with no direct generalized counterpart keep their
  // original sim::TraceEvent::Kind in `a` (see obs/sim_bridge.hpp).
  kSimEvent = 80,
};

[[nodiscard]] const char* to_string(EventKind kind);

/// One trace record. `race_id` groups every event of one alternative block
/// (a fresh id per AltGroup / await_all / DistributedBlock); `attempt` is
/// the supervisor's retry ordinal (0 when unsupervised); `child_index` is
/// the 1-based alternative number (0 for the parent/coordinator).
///
/// Cross-ring stitching fields: `node_id` names the node the event happened
/// on (ALTX_NODE_ID for real processes, the sim NodeId for the distributed
/// layers) and `seq` is the ring's claim ticket — monotonic across every
/// process sharing one ring, so program order within a node survives the
/// merge of several per-node trace files (altx-trace --stitch).
///
/// `trace_id` (schema v3) is the cross-process correlation id: minted once
/// at the client's race<T>()/server::race<T>() call, carried over the altxd
/// job protocol, and stamped into every record the daemon, its workers, and
/// their speculative grandchildren emit for that job. 0 = untraced (a local
/// race that never crossed a socket). Unlike race_id — which is a per-ring
/// counter and collides across stitched rings — trace_id is globally unique,
/// so it is the grouping key for cross-hop views.
struct Record {
  std::uint64_t t_ns = 0;      // CLOCK_MONOTONIC ns (sim time ns for sim/dist)
  std::uint64_t seq = 0;       // ring claim ticket, stamped by push()
  std::uint32_t race_id = 0;
  std::uint32_t attempt = 0;
  std::int32_t pid = 0;
  std::uint32_t node_id = 0;
  std::int16_t child_index = 0;
  EventKind kind = EventKind::kNone;
  std::uint32_t reserved = 0;  // keeps the a/b/c payload 8-byte aligned
  std::uint64_t a = 0;  // kind-specific, documented per kind above
  std::uint64_t b = 0;
  std::uint64_t c = 0;
  std::uint64_t trace_id = 0;  // schema v3: cross-process correlation id
};

static_assert(sizeof(Record) == 72, "Record is part of the shared-ring ABI");

/// Terminal fates a child can reach, as recorded in kChildFate / kTooLate /
/// kGuardFail events. True when `kind` closes a child's story.
[[nodiscard]] bool is_terminal_fate(EventKind kind);

}  // namespace altx::obs
