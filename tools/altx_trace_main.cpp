// altx-trace: post-mortem reader for ALTX_TRACE jsonl files.
//
// Reconstructs what each alternative block did — who won, when, and every
// loser's fate (too late / guard failed / crashed / hung / eliminated),
// across supervisor attempts — then prints aggregate latency statistics.
//
//   ALTX_TRACE=trace.jsonl ./your_program
//   altx-trace trace.jsonl              # per-race timelines + aggregates
//   altx-trace --summary trace.jsonl    # aggregates only
//   altx-trace --race 7 trace.jsonl     # one block, every event verbatim
//   altx-trace --efficiency trace.jsonl # speculation ledger per block
//   altx-trace --critical-path trace.jsonl
//                                       # where each block's wall time went,
//                                       # phase by phase
//   altx-trace --flame trace.jsonl      # collapsed profiler stacks, split
//                                       # by winner / loser fate (pipe into
//                                       # flamegraph.pl)
//   altx-trace --stitch a.jsonl b.jsonl -o merged.json
//                                       # merge per-node traces into one
//                                       # causally-ordered Perfetto timeline
//
// Reads the jsonl format only (the chrome format is for Perfetto; --stitch
// writes it). A trace whose ring overflowed carries a ring_overflow marker
// — every mode warns about it on stderr. Exits 1 on unreadable input, 0
// otherwise.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "obs/phase.hpp"
#include "obs/profile.hpp"
#include "posix/alt_group.hpp"
#include "posix/supervisor.hpp"

namespace {

using altx::Summary;
using altx::obs::EventKind;
using altx::obs::Record;

struct RaceView {
  std::uint32_t id = 0;
  std::vector<Record> events;  // time-sorted
  [[nodiscard]] std::uint64_t t0() const {
    return events.empty() ? 0 : events.front().t_ns;
  }
};

const char* fate_name(std::uint64_t fate) {
  return altx::posix::to_string(static_cast<altx::posix::ChildFate>(fate));
}

const char* verdict_name(std::uint64_t v) {
  return altx::posix::to_string(static_cast<altx::posix::WaitVerdict>(v));
}

const char* outcome_name(std::uint64_t o) {
  return altx::posix::to_string(static_cast<altx::posix::AttemptOutcome>(o));
}

std::string who(const Record& r) {
  if (r.child_index == 0) return "parent";
  return "#" + std::to_string(r.child_index);
}

/// One human line per event; the kind-specific args decoded where they have
/// a fixed meaning.
std::string describe(const Record& r) {
  char buf[160];
  switch (r.kind) {
    case EventKind::kRaceBegin:
      std::snprintf(buf, sizeof buf, "block begins, %llu alternatives",
                    static_cast<unsigned long long>(r.a));
      break;
    case EventKind::kFork:
      // b: the whole fork step; c: the fork(2) call alone (0 in traces
      // written before it was recorded).
      std::snprintf(buf, sizeof buf,
                    "forked pid %llu (fork step %.1f us, fork(2) %.1f us)",
                    static_cast<unsigned long long>(r.a),
                    static_cast<double>(r.b) / 1000.0,
                    static_cast<double>(r.c) / 1000.0);
      break;
    case EventKind::kGuardStart:
      std::snprintf(buf, sizeof buf, "guard starts");
      break;
    case EventKind::kGuardResult:
      std::snprintf(buf, sizeof buf, "guard %s",
                    r.a != 0 ? "held" : "failed");
      break;
    case EventKind::kCommitAttempt:
      std::snprintf(buf, sizeof buf, "reaches for the commit token");
      break;
    case EventKind::kCommitWon:
      std::snprintf(buf, sizeof buf, "took the token (%llu result bytes)",
                    static_cast<unsigned long long>(r.a));
      break;
    case EventKind::kTooLate:
      std::snprintf(buf, sizeof buf, "too late: token already gone");
      break;
    case EventKind::kGuardFail:
      std::snprintf(buf, sizeof buf, "aborts (guard failed)");
      break;
    case EventKind::kChildFate:
      if (r.b != 0) {
        std::snprintf(buf, sizeof buf, "reaped: %s (signal %llu)",
                      fate_name(r.a), static_cast<unsigned long long>(r.b));
      } else {
        std::snprintf(buf, sizeof buf, "reaped: %s", fate_name(r.a));
      }
      break;
    case EventKind::kRaceDecided:
      if (r.b != 0) {
        std::snprintf(buf, sizeof buf,
                      "decided: %s — alternative %llu (%llu pages absorbed)",
                      verdict_name(r.a), static_cast<unsigned long long>(r.b),
                      static_cast<unsigned long long>(r.c));
      } else {
        std::snprintf(buf, sizeof buf, "decided: %s", verdict_name(r.a));
      }
      break;
    case EventKind::kAttemptBegin:
      std::snprintf(buf, sizeof buf, "attempt %llu begins (timeout %llu ms)",
                    static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b));
      break;
    case EventKind::kAttemptEnd:
      std::snprintf(buf, sizeof buf, "attempt %llu ends: %s",
                    static_cast<unsigned long long>(r.a), outcome_name(r.b));
      break;
    case EventKind::kBackoff:
      std::snprintf(buf, sizeof buf, "backing off %llu ms before attempt %llu",
                    static_cast<unsigned long long>(r.b),
                    static_cast<unsigned long long>(r.a));
      break;
    case EventKind::kPredPlan:
      std::snprintf(buf, sizeof buf,
                    "plan: %llu launch now, %llu hedged, %llu skipped",
                    static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b),
                    static_cast<unsigned long long>(r.c));
      break;
    case EventKind::kPredStage:
      std::snprintf(buf, sizeof buf, "staged arm forked after %.1f ms delay",
                    static_cast<double>(r.a) / 1e6);
      break;
    case EventKind::kPredKill:
      std::snprintf(buf, sizeof buf,
                    "predicted loser: pid %llu past its p-kill %.1f ms",
                    static_cast<unsigned long long>(r.a),
                    static_cast<double>(r.b) / 1e6);
      break;
    case EventKind::kAwaitBegin:
      std::snprintf(buf, sizeof buf, "await_all begins, %llu tasks",
                    static_cast<unsigned long long>(r.a));
      break;
    case EventKind::kAwaitTaskDone:
      std::snprintf(buf, sizeof buf, "task %s",
                    r.a != 0 ? "produced a value" : "failed");
      break;
    case EventKind::kAwaitDecided:
      std::snprintf(buf, sizeof buf, "await_all %s",
                    r.a != 0 ? "collected everything" : "failed");
      break;
    case EventKind::kDistSpawn:
      std::snprintf(buf, sizeof buf,
                    "checkpoint shipped to worker (%llu bytes)",
                    static_cast<unsigned long long>(r.b));
      break;
    case EventKind::kDistAbort:
      std::snprintf(buf, sizeof buf, "remote guard failed");
      break;
    case EventKind::kDistResult:
      std::snprintf(buf, sizeof buf, "result reached the coordinator");
      break;
    case EventKind::kDistKill:
      std::snprintf(buf, sizeof buf, "elimination sent to worker");
      break;
    case EventKind::kDistDecided:
      if (r.a != 0) {
        std::snprintf(buf, sizeof buf, "committed: alternative %llu",
                      static_cast<unsigned long long>(r.b));
      } else {
        std::snprintf(buf, sizeof buf, "failed definitively (FAIL won)");
      }
      break;
    case EventKind::kVoteGrant:
      std::snprintf(buf, sizeof buf, "arbiter %llu grants candidate %llu",
                    static_cast<unsigned long long>(r.b),
                    static_cast<unsigned long long>(r.a));
      break;
    case EventKind::kVoteReject:
      std::snprintf(buf, sizeof buf, "arbiter %llu rejects candidate %llu",
                    static_cast<unsigned long long>(r.b),
                    static_cast<unsigned long long>(r.a));
      break;
    case EventKind::kSyncDecided:
      std::snprintf(buf, sizeof buf, "candidate %llu %s (%llu rounds)",
                    static_cast<unsigned long long>(r.a),
                    r.b != 0 ? "wins the semaphore" : "is too late",
                    static_cast<unsigned long long>(r.c));
      break;
    case EventKind::kChildUsage:
      std::snprintf(buf, sizeof buf,
                    "billed %.3f ms CPU, peak rss %llu KiB, "
                    "%llu minor / %llu major faults",
                    static_cast<double>(r.a) / 1'000'000.0,
                    static_cast<unsigned long long>(r.b),
                    static_cast<unsigned long long>(r.c >> 32),
                    static_cast<unsigned long long>(r.c & 0xffffffffULL));
      break;
    case EventKind::kChildPages:
      std::snprintf(buf, sizeof buf,
                    "reports %llu dirty pages (%llu bytes) before sync",
                    static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b));
      break;
    case EventKind::kSpecReport:
      std::snprintf(buf, sizeof buf,
                    "speculation bill: %.3f ms wasted CPU, %llu pages "
                    "discarded (winner ran %.3f ms)",
                    static_cast<double>(r.a) / 1'000'000.0,
                    static_cast<unsigned long long>(r.b),
                    static_cast<double>(r.c) / 1'000'000.0);
      break;
    case EventKind::kRingOverflow:
      std::snprintf(buf, sizeof buf,
                    "RING OVERFLOW: %llu records were dropped",
                    static_cast<unsigned long long>(r.a));
      break;
    case EventKind::kPhaseBegin:
      std::snprintf(buf, sizeof buf, "phase %s begins",
                    to_string(static_cast<altx::obs::Phase>(r.a)));
      break;
    case EventKind::kPhaseEnd:
      std::snprintf(buf, sizeof buf, "phase %s ends (%.1f us)",
                    to_string(static_cast<altx::obs::Phase>(r.a)),
                    static_cast<double>(r.b) / 1000.0);
      break;
    case EventKind::kProfSample:
      std::snprintf(buf, sizeof buf,
                    "profile sample %u fragment %u/%u (pc %llx %llx)",
                    altx::obs::prof_sample_id(r.c),
                    altx::obs::prof_fragment(r.c) + 1,
                    altx::obs::prof_total_fragments(r.c),
                    static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b));
      break;
    case EventKind::kProfMap:
      std::snprintf(buf, sizeof buf, "profiler armed (exe base %llx)",
                    static_cast<unsigned long long>(r.a));
      break;
    default:
      std::snprintf(buf, sizeof buf, "%s a=%llu b=%llu c=%llu",
                    to_string(r.kind), static_cast<unsigned long long>(r.a),
                    static_cast<unsigned long long>(r.b),
                    static_cast<unsigned long long>(r.c));
      break;
  }
  return buf;
}

void print_race(const RaceView& race) {
  std::printf("race %u\n", race.id);
  for (const Record& r : race.events) {
    const double rel_ms =
        static_cast<double>(r.t_ns - race.t0()) / 1'000'000.0;
    std::printf("  %+10.3f ms  %-7s %s\n", rel_ms, who(r).c_str(),
                describe(r).c_str());
  }
  // One-line verdict: who won, how long the decision took, losers' fates.
  const Record* decided = nullptr;
  std::map<int, std::uint64_t> fates;
  for (const Record& r : race.events) {
    if (r.kind == EventKind::kRaceDecided) decided = &r;
    if (r.kind == EventKind::kChildFate) fates[r.child_index] = r.a;
  }
  if (decided != nullptr) {
    const double total_ms =
        static_cast<double>(decided->t_ns - race.t0()) / 1'000'000.0;
    std::printf("  => %s in %.3f ms", verdict_name(decided->a), total_ms);
    if (decided->b != 0) {
      std::printf(", alternative %llu won",
                  static_cast<unsigned long long>(decided->b));
    }
    bool first = true;
    for (const auto& [child, fate] : fates) {
      if (decided->b != 0 && child == static_cast<int>(decided->b)) continue;
      std::printf("%s#%d %s", first ? "; " : ", ", child, fate_name(fate));
      first = false;
    }
    std::printf("\n");
  }
  std::printf("\n");
}

void print_ms_stats(const char* label, const Summary& s) {
  if (s.empty()) return;
  std::printf("  %-18s n=%-5zu mean %8.3f ms   p50 %8.3f ms   p95 %8.3f ms"
              "   max %8.3f ms\n",
              label, s.count(), s.mean(), s.median(), s.percentile(95),
              s.max());
}

/// Loads one jsonl trace; nullopt (after an stderr diagnostic) on failure.
std::optional<std::vector<Record>> load_records(
    const std::string& path, altx::obs::JsonlStats* stats = nullptr) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "altx-trace: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  try {
    return altx::obs::parse_jsonl(in, stats);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "altx-trace: %s: %s\n", path.c_str(), e.what());
    return std::nullopt;
  }
}

/// A truncated trace is still worth reading, but every conclusion drawn
/// from it deserves an asterisk — put it on stderr, once per input file.
void warn_if_overflowed(const std::string& path,
                        const std::vector<Record>& records) {
  for (const Record& r : records) {
    if (r.kind == EventKind::kRingOverflow) {
      std::fprintf(stderr,
                   "altx-trace: warning: %s lost %llu records to ring "
                   "overflow (raise ALTX_TRACE_BUF)\n",
                   path.c_str(), static_cast<unsigned long long>(r.a));
      return;
    }
  }
}

/// --efficiency: the speculation ledger per block, from the kSpecReport
/// each AltGroup emits once all of its children are reaped, with the
/// governor's over-budget kills folded in — a budget-killed arm is pure
/// waste by construction, so it deserves its own column in the table.
int run_efficiency(const std::string& path) {
  const auto loaded = load_records(path);
  if (!loaded.has_value()) return 1;
  warn_if_overflowed(path, *loaded);
  // Per-race censuses: arms the governor killed over budget, arms the
  // predictor killed past their own quantile, and arms the plan deferred
  // (kPredPlan.b) — the deferred count is the savings story: a hedged arm
  // that never woke cost nearly nothing.
  std::map<std::uint32_t, int> over_budget;
  std::map<std::uint32_t, int> pred_killed;
  std::map<std::uint32_t, int> deferred;
  for (const Record& r : *loaded) {
    if (r.kind == EventKind::kChildFate) {
      const auto fate = static_cast<altx::posix::ChildFate>(r.a);
      if (fate == altx::posix::ChildFate::kOverBudget) ++over_budget[r.race_id];
      if (fate == altx::posix::ChildFate::kPredictedLoser) {
        ++pred_killed[r.race_id];
      }
    } else if (r.kind == EventKind::kPredPlan) {
      deferred[r.race_id] += static_cast<int>(r.b + r.c);
    }
  }
  std::printf("%-8s %15s %15s %17s %9s %9s %9s %8s\n", "race", "wasted CPU ms",
              "winner CPU ms", "discarded pages", "ob kills", "pk kills",
              "deferred", "ratio");
  std::uint64_t total_wasted = 0;
  std::uint64_t total_winner = 0;
  std::uint64_t total_pages = 0;
  int total_ob = 0;
  int total_pk = 0;
  int total_deferred = 0;
  int blocks = 0;
  auto census = [](const std::map<std::uint32_t, int>& m, std::uint32_t race) {
    const auto it = m.find(race);
    return it == m.end() ? 0 : it->second;
  };
  for (const Record& r : *loaded) {
    if (r.kind != EventKind::kSpecReport) continue;
    ++blocks;
    total_wasted += r.a;
    total_pages += r.b;
    total_winner += r.c;
    const int ob = census(over_budget, r.race_id);
    const int pk = census(pred_killed, r.race_id);
    const int df = census(deferred, r.race_id);
    total_ob += ob;
    total_pk += pk;
    total_deferred += df;
    const double ratio =
        r.c == 0 ? 0.0
                 : static_cast<double>(r.a + r.c) / static_cast<double>(r.c);
    std::printf("%-8u %15.3f %15.3f %17llu %9d %9d %9d %8.2f\n", r.race_id,
                static_cast<double>(r.a) / 1'000'000.0,
                static_cast<double>(r.c) / 1'000'000.0,
                static_cast<unsigned long long>(r.b), ob, pk, df, ratio);
  }
  if (blocks == 0) {
    std::printf("no speculation reports in %s (single-child blocks, or the "
                "trace predates accounting)\n",
                path.c_str());
    return 0;
  }
  const double total_ratio =
      total_winner == 0
          ? 0.0
          : static_cast<double>(total_wasted + total_winner) /
                static_cast<double>(total_winner);
  std::printf("%-8s %15.3f %15.3f %17llu %9d %9d %9d %8.2f   (%d blocks)\n",
              "total", static_cast<double>(total_wasted) / 1'000'000.0,
              static_cast<double>(total_winner) / 1'000'000.0,
              static_cast<unsigned long long>(total_pages), total_ob, total_pk,
              total_deferred, total_ratio, blocks);
  return 0;
}

/// --critical-path: per-race phase breakdown from the kPhaseEnd spans, plus
/// the cross-race dominant-phase histogram — the answer to "where does the
/// 20 µs floor actually go?".
int run_critical_path(const std::string& path) {
  using altx::obs::kPhaseCount;
  using altx::obs::Phase;
  using altx::obs::PhaseBreakdown;
  const auto loaded = load_records(path);
  if (!loaded.has_value()) return 1;
  warn_if_overflowed(path, *loaded);
  const auto races = altx::obs::reduce_critical_path(*loaded);
  if (races.empty()) {
    std::printf("no races in %s\n", path.c_str());
    return 0;
  }
  std::printf("%-8s %10s %6s %-14s  %s\n", "race", "wall ms", "cover",
              "dominant", "parent phases (ms)");
  int dominant_count[kPhaseCount] = {};
  std::uint64_t phase_totals[kPhaseCount] = {};
  std::uint64_t child_totals[kPhaseCount] = {};
  std::uint64_t total_wall = 0;
  std::uint64_t total_attributed = 0;
  int decided = 0;
  std::uint32_t dangling = 0;
  for (const auto& [id, b] : races) {
    for (int p = 0; p < kPhaseCount; ++p) {
      phase_totals[p] += b.phase_ns[p];
      child_totals[p] += b.child_ns[p];
    }
    dangling += b.dangling_begins;
    if (!b.decided) {
      std::printf("%-8u %10s %6s %-14s  (no decision in trace)\n", id, "-",
                  "-", "-");
      continue;
    }
    ++decided;
    total_wall += b.wall_ns;
    total_attributed += b.attributed_ns();
    ++dominant_count[static_cast<int>(b.dominant())];
    std::printf("%-8u %10.3f %5.1f%% %-14s ", id,
                static_cast<double>(b.wall_ns) / 1'000'000.0,
                b.coverage() * 100.0, to_string(b.dominant()));
    for (int p = 1; p < kPhaseCount; ++p) {
      if (b.phase_ns[p] == 0) continue;
      std::printf(" %s=%.3f", to_string(static_cast<Phase>(p)),
                  static_cast<double>(b.phase_ns[p]) / 1'000'000.0);
    }
    std::printf("\n");
  }
  if (decided == 0) {
    std::printf("\nno decided races (trace predates phase spans)\n");
    return 0;
  }
  const double coverage =
      total_wall == 0 ? 0.0
                      : static_cast<double>(total_attributed) /
                            static_cast<double>(total_wall);
  std::printf("\naggregate: %d decided races, %.1f%% of wall attributed",
              decided, coverage * 100.0);
  if (dangling > 0) {
    std::printf(" (%u spans truncated by kills)", dangling);
  }
  std::printf("\n  dominant phase:");
  for (int p = 0; p < kPhaseCount; ++p) {
    if (dominant_count[p] == 0) continue;
    std::printf(" %s=%d", to_string(static_cast<Phase>(p)),
                dominant_count[p]);
  }
  std::printf("\n  parent totals: ");
  for (int p = 1; p < kPhaseCount; ++p) {
    if (phase_totals[p] == 0) continue;
    std::printf(" %s=%.3fms", to_string(static_cast<Phase>(p)),
                static_cast<double>(phase_totals[p]) / 1'000'000.0);
  }
  std::printf("\n  child  totals: ");
  for (int p = 1; p < kPhaseCount; ++p) {
    if (child_totals[p] == 0) continue;
    std::printf(" %s=%.3fms", to_string(static_cast<Phase>(p)),
                static_cast<double>(child_totals[p]) / 1'000'000.0);
  }
  std::printf("\n");

  // Cross-process rollup: when the input is a stitched client+daemon trace,
  // group by trace id instead of race id — the client's submit→result
  // interval is the wall, and the daemon's queue and phase spans tile it.
  const auto by_trace = altx::obs::reduce_critical_path_by_trace(*loaded);
  if (!by_trace.empty()) {
    std::printf("\ncross-process traces (%zu)\n", by_trace.size());
    std::printf("%-18s %10s %6s %-14s  %s\n", "trace", "wall ms", "cover",
                "dominant", "phases (ms)");
    std::uint64_t t_wall = 0;
    std::uint64_t t_attr = 0;
    int t_decided = 0;
    for (const auto& [id, b] : by_trace) {
      if (!b.decided) continue;
      ++t_decided;
      t_wall += b.wall_ns;
      t_attr += b.attributed_ns();
      std::printf("%016llx %10.3f %5.1f%% %-14s ",
                  static_cast<unsigned long long>(id),
                  static_cast<double>(b.wall_ns) / 1'000'000.0,
                  b.coverage() * 100.0, to_string(b.dominant()));
      for (int p = 1; p < kPhaseCount; ++p) {
        if (b.phase_ns[p] == 0) continue;
        std::printf(" %s=%.3f", to_string(static_cast<Phase>(p)),
                    static_cast<double>(b.phase_ns[p]) / 1'000'000.0);
      }
      if (b.rpc_ns != 0) {
        std::printf(" rpc=%.3f",
                    static_cast<double>(b.rpc_ns) / 1'000'000.0);
      }
      std::printf("\n");
    }
    if (t_decided > 0) {
      const double tc = t_wall == 0 ? 0.0
                                    : static_cast<double>(t_attr) /
                                          static_cast<double>(t_wall);
      std::printf("aggregate: %d decided traces, %.1f%% of wall attributed "
                  "across the hop\n",
                  t_decided, tc * 100.0);
    }
  }
  return 0;
}

/// --flame: reassemble kProfSample fragments into collapsed stacks
/// (flamegraph.pl / speedscope input), rooted at the sampled child's fate so
/// the winner's and losers' work render side by side.
int run_flame(const std::string& path, const std::string& out) {
  const auto loaded = load_records(path);
  if (!loaded.has_value()) return 1;
  warn_if_overflowed(path, *loaded);

  // First pass: exe load base per pid (kProfMap) and fate per
  // (race, child) (kChildFate — its child_index names the reaped arm).
  std::map<pid_t, std::uint64_t> exe_base;
  std::map<std::pair<std::uint32_t, int>, std::uint64_t> fates;
  for (const Record& r : *loaded) {
    if (r.kind == EventKind::kProfMap && exe_base.count(r.pid) == 0) {
      exe_base[r.pid] = r.a;
    } else if (r.kind == EventKind::kChildFate) {
      fates[{r.race_id, r.child_index}] = r.a;
    }
  }

  // Second pass: gather each sample's pcs in fragment order. Fragments of
  // one sample share (pid, sample_id) and arrive leaf-first.
  struct Stack {
    std::vector<std::uint64_t> pcs;
    std::uint8_t expect = 0;  // total_fragments, for completeness check
    std::uint8_t got = 0;
    std::uint32_t race = 0;
    int child = 0;
    pid_t pid = 0;
  };
  std::map<std::pair<pid_t, std::uint32_t>, Stack> samples;
  for (const Record& r : *loaded) {
    if (r.kind != EventKind::kProfSample) continue;
    Stack& s = samples[{r.pid, altx::obs::prof_sample_id(r.c)}];
    s.expect = altx::obs::prof_total_fragments(r.c);
    ++s.got;
    s.race = r.race_id;
    s.child = r.child_index;
    s.pid = r.pid;
    if (r.a != 0) s.pcs.push_back(r.a);
    if (r.b != 0) s.pcs.push_back(r.b);
  }
  if (samples.empty()) {
    std::fprintf(stderr,
                 "altx-trace: no profile samples in %s (run with ALTX_PROF=1 "
                 "and arms that burn CPU)\n",
                 path.c_str());
    return 1;
  }

  // Fold identical stacks. Collapsed format is root-to-leaf ';'-joined with
  // a trailing count; the fate tag is the root frame, so a flamegraph
  // splits winner / loser_* at the base. Ring overflow can eat fragments —
  // incomplete samples are dropped and counted.
  std::map<std::string, std::uint64_t> folded;
  std::size_t incomplete = 0;
  for (const auto& [key, s] : samples) {
    if (s.got != s.expect || s.pcs.empty()) {
      ++incomplete;
      continue;
    }
    std::string line;
    const auto fit = fates.find({s.race, s.child});
    if (fit == fates.end()) {
      line = "unreaped";
    } else if (static_cast<altx::posix::ChildFate>(fit->second) ==
               altx::posix::ChildFate::kCommitted) {
      line = "winner";
    } else {
      line = std::string("loser_") + fate_name(fit->second);
    }
    const auto bit = exe_base.find(s.pid);
    const std::uint64_t base = bit == exe_base.end() ? 0 : bit->second;
    char frame[48];
    for (auto it = s.pcs.rbegin(); it != s.pcs.rend(); ++it) {  // root first
      // Only PCs plausibly inside the exe's text get the exe+ prefix; libc
      // and vdso frames map far above the load base and print raw.
      if (base != 0 && *it >= base && *it - base < (1ULL << 28)) {
        std::snprintf(frame, sizeof frame, ";exe+0x%llx",
                      static_cast<unsigned long long>(*it - base));
      } else {
        std::snprintf(frame, sizeof frame, ";0x%llx",
                      static_cast<unsigned long long>(*it));
      }
      line += frame;
    }
    ++folded[line];
  }

  std::ofstream file;
  if (!out.empty()) {
    file.open(out);
    if (!file) {
      std::fprintf(stderr, "altx-trace: cannot write %s\n", out.c_str());
      return 1;
    }
  }
  std::ostream& sink = out.empty() ? std::cout : file;
  for (const auto& [stack, count] : folded) {
    sink << stack << " " << count << "\n";
  }
  std::fprintf(stderr,
               "altx-trace: %zu samples, %zu unique stacks, %zu incomplete "
               "(symbolize with: addr2line -fe <exe> <offset>)\n",
               samples.size() - incomplete, folded.size(), incomplete);
  return 0;
}

/// --stitch: merge per-node jsonl traces into one causally-ordered file.
int run_stitch(const std::vector<std::string>& paths, const std::string& out,
               const std::string& format) {
  std::vector<std::vector<Record>> traces;
  traces.reserve(paths.size());
  for (const std::string& p : paths) {
    altx::obs::JsonlStats stats;
    auto loaded = load_records(p, &stats);
    if (!loaded.has_value()) return 1;
    // A stitch over nothing, or over records that all collapse onto the same
    // (node, seq) tie-breaker, silently produces a wrong merge — refuse.
    if (stats.records == 0) {
      std::fprintf(stderr, "altx-trace: %s: empty trace, nothing to stitch\n",
                   p.c_str());
      return 1;
    }
    if (stats.missing_node_seq > 0) {
      std::fprintf(stderr,
                   "altx-trace: %s: schema-v1 trace (%zu of %zu records lack "
                   "node/seq); re-export it with a current writer before "
                   "stitching\n",
                   p.c_str(), stats.missing_node_seq, stats.records);
      return 1;
    }
    warn_if_overflowed(p, *loaded);
    traces.push_back(std::move(*loaded));
  }
  // Per-process rings all default to node 0, so two standalone traces
  // (client + daemon) would collide on the (node, seq) tie-breaker and the
  // cross-node census below would see a single node. Remap any input whose
  // node ids collide with an earlier input into a fresh namespace;
  // genuinely distinct node sets (a sim trace) pass through untouched.
  {
    std::set<std::uint32_t> used;
    std::uint32_t next_free = 0;
    for (std::size_t i = 0; i < traces.size(); ++i) {
      std::set<std::uint32_t> mine;
      for (const Record& r : traces[i]) mine.insert(r.node_id);
      bool collide = false;
      for (const std::uint32_t n : mine) collide = collide || used.count(n) > 0;
      if (collide) {
        std::map<std::uint32_t, std::uint32_t> remap;
        for (const std::uint32_t n : mine) {
          while (used.count(next_free) > 0) ++next_free;
          remap[n] = next_free;
          used.insert(next_free);
        }
        for (Record& r : traces[i]) r.node_id = remap[r.node_id];
        std::fprintf(stderr,
                     "altx-trace: %s: node ids collide with an earlier "
                     "input; remapped onto %zu fresh node id(s)\n",
                     paths[i].c_str(), remap.size());
      } else {
        used.insert(mine.begin(), mine.end());
      }
    }
  }
  const std::vector<Record> merged = altx::obs::stitch_records(traces);
  std::ofstream file;
  if (!out.empty()) {
    file.open(out);
    if (!file) {
      std::fprintf(stderr, "altx-trace: cannot write %s\n", out.c_str());
      return 1;
    }
  }
  std::ostream& sink = out.empty() ? std::cout : file;
  try {
    altx::obs::write_trace(merged, sink, format);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "altx-trace: %s\n", e.what());
    return 1;
  }
  // Cross-process census: a trace id that appears on more than one node is
  // a job that actually crossed the socket hop with its identity intact —
  // the number CI asserts on.
  std::map<std::uint64_t, std::set<std::uint32_t>> trace_nodes;
  for (const Record& r : merged) {
    if (r.trace_id != 0) trace_nodes[r.trace_id].insert(r.node_id);
  }
  std::size_t cross_node = 0;
  for (const auto& [id, nodes] : trace_nodes) {
    if (nodes.size() > 1) ++cross_node;
  }
  std::fprintf(stderr,
               "altx-trace: stitched %zu records from %zu traces; "
               "%zu trace ids (%zu spanning multiple nodes)\n",
               merged.size(), traces.size(), trace_nodes.size(), cross_node);
  return 0;
}

int run(const std::string& path, bool summary_only,
        std::optional<std::uint32_t> only_race) {
  const auto loaded = load_records(path);
  if (!loaded.has_value()) return 1;
  const std::vector<Record>& records = *loaded;
  warn_if_overflowed(path, records);

  std::map<std::uint32_t, RaceView> races;
  for (const Record& r : records) {
    RaceView& v = races[r.race_id];
    v.id = r.race_id;
    v.events.push_back(r);
  }
  for (auto& [id, v] : races) {
    std::stable_sort(v.events.begin(), v.events.end(),
                     [](const Record& x, const Record& y) {
                       return x.t_ns < y.t_ns;
                     });
  }

  std::printf("%s: %zu records, %zu blocks\n\n", path.c_str(), records.size(),
              races.size());

  if (only_race.has_value()) {
    const auto it = races.find(*only_race);
    if (it == races.end()) {
      std::fprintf(stderr, "altx-trace: no race %u in %s\n", *only_race,
                   path.c_str());
      return 1;
    }
    print_race(it->second);
    return 0;
  }

  if (!summary_only) {
    for (const auto& [id, v] : races) print_race(v);
  }

  // Aggregates across the whole file.
  Summary fork_ms;
  Summary fork_call_ms;
  Summary commit_ms;
  Summary decide_ms;
  std::map<std::uint64_t, int> fate_counts;
  int won = 0;
  int lost = 0;
  // Minor faults of each arm from its kChildUsage record (high word of c),
  // split by whether its kChildFate says it committed.
  Summary winner_faults;
  Summary loser_faults;
  for (const auto& [id, v] : races) {
    std::map<std::int16_t, std::uint64_t> fates;
    std::map<std::int16_t, std::uint64_t> faults;
    for (const Record& r : v.events) {
      if (r.kind == EventKind::kFork) {
        fork_ms.add(static_cast<double>(r.b) / 1'000'000.0);
        if (r.c != 0) fork_call_ms.add(static_cast<double>(r.c) / 1'000'000.0);
      } else if (r.kind == EventKind::kChildUsage) {
        faults[r.child_index] = r.c >> 32;
      } else if (r.kind == EventKind::kChildFate) {
        fates[r.child_index] = r.a;
        ++fate_counts[r.a];
      } else if (r.kind == EventKind::kRaceDecided) {
        const double ms =
            static_cast<double>(r.t_ns - v.t0()) / 1'000'000.0;
        decide_ms.add(ms);
        if (r.b != 0) {
          ++won;
          commit_ms.add(ms);
        } else {
          ++lost;
        }
      }
    }
    for (const auto& [arm, n] : faults) {
      const auto fate = fates.find(arm);
      if (fate == fates.end()) continue;
      const bool committed =
          fate->second ==
          static_cast<std::uint64_t>(altx::posix::ChildFate::kCommitted);
      (committed ? winner_faults : loser_faults).add(static_cast<double>(n));
    }
  }
  std::printf("aggregates\n");
  std::printf("  blocks decided: %d won, %d without a winner\n", won, lost);
  if (!fate_counts.empty()) {
    std::printf("  child fates:");
    for (const auto& [fate, count] : fate_counts) {
      std::printf(" %s=%d", fate_name(fate), count);
    }
    std::printf("\n");
  }
  print_ms_stats("fork step", fork_ms);
  print_ms_stats("fork(2) call", fork_call_ms);
  print_ms_stats("commit latency", commit_ms);
  print_ms_stats("decide latency", decide_ms);
  if (!winner_faults.empty() || !loser_faults.empty()) {
    std::printf("  arm minor faults   winning p50 %.0f (n=%zu)   losing p50 "
                "%.0f (n=%zu)\n",
                winner_faults.empty() ? 0.0 : winner_faults.median(),
                winner_faults.count(),
                loser_faults.empty() ? 0.0 : loser_faults.median(),
                loser_faults.count());
  }
  return 0;
}

}  // namespace

namespace {

constexpr char kUsage[] =
    "usage: altx-trace [--summary] [--race N] [--efficiency] "
    "[--critical-path] <trace.jsonl>\n"
    "       altx-trace --flame [-o out.folded] <trace.jsonl>\n"
    "       altx-trace --stitch a.jsonl b.jsonl ... [-o out] "
    "[--format chrome|jsonl]\n";

}  // namespace

int main(int argc, char** argv) {
  bool summary_only = false;
  bool efficiency = false;
  bool critical_path = false;
  bool flame = false;
  bool stitch = false;
  std::optional<std::uint32_t> only_race;
  std::string out;
  std::string format = "chrome";  // --stitch exists to feed Perfetto
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--summary") {
      summary_only = true;
    } else if (arg == "--efficiency") {
      efficiency = true;
    } else if (arg == "--critical-path") {
      critical_path = true;
    } else if (arg == "--flame") {
      flame = true;
    } else if (arg == "--stitch") {
      stitch = true;
    } else if (arg == "--race" && i + 1 < argc) {
      only_race = static_cast<std::uint32_t>(std::atoll(argv[++i]));
    } else if ((arg == "-o" || arg == "--out") && i + 1 < argc) {
      out = argv[++i];
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      paths.push_back(arg);
    } else {
      std::fprintf(stderr, "altx-trace: unknown option %s\n", arg.c_str());
      return 1;
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 1;
  }
  if (stitch) return run_stitch(paths, out, format);
  if (paths.size() != 1) {
    std::fprintf(stderr, "altx-trace: one input unless --stitch\n%s", kUsage);
    return 1;
  }
  if (efficiency) return run_efficiency(paths.front());
  if (critical_path) return run_critical_path(paths.front());
  if (flame) return run_flame(paths.front(), out);
  return run(paths.front(), summary_only, only_race);
}
