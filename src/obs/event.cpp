#include "obs/event.hpp"

namespace altx::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kNone: return "none";
    case EventKind::kRaceBegin: return "race_begin";
    case EventKind::kFork: return "fork";
    case EventKind::kGuardStart: return "guard_start";
    case EventKind::kGuardResult: return "guard_result";
    case EventKind::kCommitAttempt: return "commit_attempt";
    case EventKind::kCommitWon: return "commit_won";
    case EventKind::kTooLate: return "too_late";
    case EventKind::kGuardFail: return "guard_fail";
    case EventKind::kChildFate: return "child_fate";
    case EventKind::kRaceDecided: return "race_decided";
    case EventKind::kEliminated: return "eliminated";
    case EventKind::kChildUsage: return "child_usage";
    case EventKind::kChildPages: return "child_pages";
    case EventKind::kSpecReport: return "spec_report";
    case EventKind::kRingOverflow: return "ring_overflow";
    case EventKind::kAttemptBegin: return "attempt_begin";
    case EventKind::kAttemptEnd: return "attempt_end";
    case EventKind::kBackoff: return "backoff";
    case EventKind::kGovAdmitWait: return "gov_admit_wait";
    case EventKind::kGovAdmit: return "gov_admit";
    case EventKind::kGovKill: return "gov_kill";
    case EventKind::kGovBudget: return "gov_budget";
    case EventKind::kGovOverdraft: return "gov_overdraft";
    case EventKind::kGovNarrow: return "gov_narrow";
    case EventKind::kPhaseBegin: return "phase_begin";
    case EventKind::kPhaseEnd: return "phase_end";
    case EventKind::kProfSample: return "prof_sample";
    case EventKind::kProfMap: return "prof_map";
    case EventKind::kAwaitBegin: return "await_begin";
    case EventKind::kAwaitTaskDone: return "await_task_done";
    case EventKind::kAwaitDecided: return "await_decided";
    case EventKind::kSrvConnect: return "srv_connect";
    case EventKind::kSrvSubmit: return "srv_submit";
    case EventKind::kSrvDeny: return "srv_deny";
    case EventKind::kSrvAssign: return "srv_assign";
    case EventKind::kSrvResult: return "srv_result";
    case EventKind::kSrvCancel: return "srv_cancel";
    case EventKind::kSrvClientGone: return "srv_client_gone";
    case EventKind::kSrvWorkerSpawn: return "srv_worker_spawn";
    case EventKind::kSrvWorkerExit: return "srv_worker_exit";
    case EventKind::kSrvShutdown: return "srv_shutdown";
    case EventKind::kPredPlan: return "pred_plan";
    case EventKind::kPredStage: return "pred_stage";
    case EventKind::kPredKill: return "pred_kill";
    case EventKind::kDistSpawn: return "dist_spawn";
    case EventKind::kDistAbort: return "dist_abort";
    case EventKind::kDistResult: return "dist_result";
    case EventKind::kDistKill: return "dist_kill";
    case EventKind::kDistDecided: return "dist_decided";
    case EventKind::kVoteGrant: return "vote_grant";
    case EventKind::kVoteReject: return "vote_reject";
    case EventKind::kSyncDecided: return "sync_decided";
    case EventKind::kSimEvent: return "sim_event";
  }
  return "?";
}

bool is_terminal_fate(EventKind kind) {
  // kChildFate is the parent's post-mortem verdict — the authoritative
  // terminal event; the child-side kinds are the child's own last words.
  return kind == EventKind::kChildFate;
}

}  // namespace altx::obs
